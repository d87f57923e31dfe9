// Reproduces Table I: additional CNOT gates of Qiskit+NASSC vs
// Qiskit+SABRE on the ibmq_montreal coupling map, plus transpile-time
// ratios (paper Sec. VI-A / VI-B).
//
// The whole sweep — every (benchmark, router, seed) triple — is submitted
// up front as tickets on one TranspileContext, so all cells share a
// single cached distance matrix and saturate the machine.

#include "bench_common.h"

using namespace nassc;
using namespace nassc::bench;

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv);
    auto dev = std::make_shared<Backend>(montreal_backend());

    std::printf("Table I: additional CNOTs, SABRE vs NASSC on %s "
                "(%d seeds/cell)\n\n",
                dev->name.c_str(), args.seeds);
    std::printf("%-15s %4s %9s | %9s %9s %8s | %9s %9s %8s | %8s %8s %7s\n",
                "name", "#q", "CXorig", "CXsabre", "CXadd", "t(s)",
                "CXnassc", "CXadd", "t(s)", "dTotal", "dAdd", "t_ratio");

    std::vector<std::string> csv;
    csv.push_back("name,qubits,cx_orig,cx_sabre,cx_add_sabre,t_sabre,"
                  "cx_nassc,cx_add_nassc,t_nassc,delta_total,delta_add,"
                  "time_ratio");

    const std::vector<BenchmarkCase> benchmarks = table_benchmarks();

    // Submit everything, then fold cells back in submission order.
    Sweep sweep(args.threads);
    for (const BenchmarkCase &bc : benchmarks) {
        sweep.add_cell(bc.name + "/sabre", bc.circuit, dev,
                       RoutingAlgorithm::kSabre, args.seeds);
        sweep.add_cell(bc.name + "/nassc", bc.circuit, dev,
                       RoutingAlgorithm::kNassc, args.seeds);
    }

    GeoMean gm_total, gm_add;
    double time_ratio_log = 0.0;
    int time_n = 0;

    for (const BenchmarkCase &bc : benchmarks) {
        TranspileResult base =
            TranspileContext::global().optimize_only(bc.circuit);
        Cell sabre = sweep.next_cell(args.seeds, base.cx_total, base.depth);
        Cell nassc = sweep.next_cell(args.seeds, base.cx_total, base.depth);

        double d_total = 100.0 * (1.0 - nassc.cx_total / sabre.cx_total);
        double d_add =
            sabre.cx_add > 0.0
                ? 100.0 * (1.0 - nassc.cx_add / sabre.cx_add)
                : 0.0;
        double t_ratio = nassc.seconds / sabre.seconds;

        gm_total.add_ratio(nassc.cx_total, sabre.cx_total);
        gm_add.add_ratio(nassc.cx_add, sabre.cx_add);
        time_ratio_log += std::log(t_ratio);
        ++time_n;

        std::printf("%-15s %4d %9d | %9.1f %9.1f %8.3f | %9.1f %9.1f %8.3f "
                    "| %7.2f%% %7.2f%% %7.2f\n",
                    bc.name.c_str(), bc.circuit.num_qubits(), base.cx_total,
                    sabre.cx_total, sabre.cx_add, sabre.seconds,
                    nassc.cx_total, nassc.cx_add, nassc.seconds, d_total,
                    d_add, t_ratio);

        char line[512];
        std::snprintf(line, sizeof(line),
                      "%s,%d,%d,%.1f,%.1f,%.4f,%.1f,%.1f,%.4f,%.2f,%.2f,%.2f",
                      bc.name.c_str(), bc.circuit.num_qubits(), base.cx_total,
                      sabre.cx_total, sabre.cx_add, sabre.seconds,
                      nassc.cx_total, nassc.cx_add, nassc.seconds, d_total,
                      d_add, t_ratio);
        csv.push_back(line);
        std::fflush(stdout);
    }

    std::printf("\nGeometric mean dCNOT_total: %.2f%%   (paper: 13.25%%)\n",
                gm_total.reduction_percent());
    std::printf("Geometric mean dCNOT_add:   %.2f%%   (paper: 21.30%%)\n",
                gm_add.reduction_percent());
    std::printf("Geometric mean time ratio:  %.2fx    (paper: 1.32x)\n",
                std::exp(time_ratio_log / time_n));
    std::printf("batch: %zu jobs in %.2fs wall, %zu distance matrix "
                "computation(s)\n",
                sweep.jobs(), sweep.seconds(),
                sweep.distance_computations());

    write_csv(args.csv, csv);
    return 0;
}
