// Reproduces Table II: circuit depth of Qiskit+NASSC vs Qiskit+SABRE on
// the ibmq_montreal coupling map (paper Sec. VI-A).

#include "bench_common.h"

using namespace nassc;
using namespace nassc::bench;

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv);
    auto dev = std::make_shared<Backend>(montreal_backend());

    std::printf("Table II: circuit depth, SABRE vs NASSC on %s "
                "(%d seeds/cell)\n\n",
                dev->name.c_str(), args.seeds);
    std::printf("%-15s %4s %9s | %9s %9s | %9s %9s | %9s %9s\n", "name",
                "#q", "Dorig", "Dsabre", "Dadd", "Dnassc", "Dadd",
                "dTotal", "dAdd");

    std::vector<std::string> csv;
    csv.push_back("name,qubits,depth_orig,depth_sabre,depth_add_sabre,"
                  "depth_nassc,depth_add_nassc,delta_total,delta_add");

    GeoMean gm_total, gm_add;

    const std::vector<BenchmarkCase> benchmarks = table_benchmarks();
    Sweep sweep(args.threads);
    for (const BenchmarkCase &bc : benchmarks) {
        sweep.add_cell(bc.name + "/sabre", bc.circuit, dev,
                       RoutingAlgorithm::kSabre, args.seeds);
        sweep.add_cell(bc.name + "/nassc", bc.circuit, dev,
                       RoutingAlgorithm::kNassc, args.seeds);
    }

    for (const BenchmarkCase &bc : benchmarks) {
        TranspileResult base =
            TranspileContext::global().optimize_only(bc.circuit);
        Cell sabre = sweep.next_cell(args.seeds, base.cx_total, base.depth);
        Cell nassc = sweep.next_cell(args.seeds, base.cx_total, base.depth);

        double d_total =
            100.0 * (1.0 - nassc.depth_total / sabre.depth_total);
        double d_add =
            sabre.depth_add > 0.0
                ? 100.0 * (1.0 - nassc.depth_add / sabre.depth_add)
                : 0.0;
        gm_total.add_ratio(nassc.depth_total, sabre.depth_total);
        gm_add.add_ratio(nassc.depth_add, sabre.depth_add);

        std::printf("%-15s %4d %9d | %9.1f %9.1f | %9.1f %9.1f | %8.2f%% "
                    "%8.2f%%\n",
                    bc.name.c_str(), bc.circuit.num_qubits(), base.depth,
                    sabre.depth_total, sabre.depth_add, nassc.depth_total,
                    nassc.depth_add, d_total, d_add);

        char line[384];
        std::snprintf(line, sizeof(line),
                      "%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%.2f,%.2f",
                      bc.name.c_str(), bc.circuit.num_qubits(), base.depth,
                      sabre.depth_total, sabre.depth_add, nassc.depth_total,
                      nassc.depth_add, d_total, d_add);
        csv.push_back(line);
        std::fflush(stdout);
    }

    std::printf("\nGeometric mean ddepth_total: %.2f%%  (paper: 6.05%%)\n",
                gm_total.reduction_percent());
    std::printf("Geometric mean ddepth_add:   %.2f%%  (paper: 7.61%%)\n",
                gm_add.reduction_percent());

    write_csv(args.csv, csv);
    return 0;
}
