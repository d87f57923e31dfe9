// Reproduces Tables III and IV: additional CNOT gates of NASSC vs SABRE
// on the 25-qubit linear-nearest-neighbour chain and on the 5x5 2D grid
// (paper Sec. VI-C).  Build as two binaries selecting the backend via
// TABLE3_LINEAR / TABLE4_GRID.

#include "bench_common.h"

using namespace nassc;
using namespace nassc::bench;

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv);
#ifdef TABLE3_LINEAR
    auto dev = std::make_shared<Backend>(linear_backend(25));
    const char *table = "Table III";
    const char *paper_total = "21.92%", *paper_add = "34.65%";
#else
    auto dev = std::make_shared<Backend>(grid_backend(5, 5));
    const char *table = "Table IV";
    const char *paper_total = "15.13%", *paper_add = "28.10%";
#endif

    std::printf("%s: additional CNOTs, SABRE vs NASSC on %s "
                "(%d seeds/cell)\n\n",
                table, dev->name.c_str(), args.seeds);
    std::printf("%-15s %4s %9s | %9s %9s | %9s %9s | %8s %8s %7s\n", "name",
                "#q", "CXorig", "CXsabre", "CXadd", "CXnassc", "CXadd",
                "dTotal", "dAdd", "t_ratio");

    std::vector<std::string> csv;
    csv.push_back("name,qubits,cx_orig,cx_sabre,cx_add_sabre,cx_nassc,"
                  "cx_add_nassc,delta_total,delta_add,time_ratio");

    GeoMean gm_total, gm_add;

    // Submit the full sweep sharing a cached distance matrix, then fold
    // cells back in submission order.
    const std::vector<BenchmarkCase> benchmarks = table_benchmarks();
    Sweep sweep(args.threads);
    std::vector<const BenchmarkCase *> cases;
    for (const BenchmarkCase &bc : benchmarks) {
        if (bc.circuit.num_qubits() > dev->coupling.num_qubits())
            continue;
        cases.push_back(&bc);
        sweep.add_cell(bc.name + "/sabre", bc.circuit, dev,
                       RoutingAlgorithm::kSabre, args.seeds);
        sweep.add_cell(bc.name + "/nassc", bc.circuit, dev,
                       RoutingAlgorithm::kNassc, args.seeds);
    }

    for (const BenchmarkCase *bcp : cases) {
        const BenchmarkCase &bc = *bcp;
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

        std::printf("%-15s %4d %9d | %9.1f %9.1f | %9.1f %9.1f | %7.2f%% "
                    "%7.2f%% %7.2f\n",
                    bc.name.c_str(), bc.circuit.num_qubits(), base.cx_total,
                    sabre.cx_total, sabre.cx_add, nassc.cx_total,
                    nassc.cx_add, d_total, d_add, t_ratio);

        char line[384];
        std::snprintf(line, sizeof(line),
                      "%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%.2f,%.2f,%.2f",
                      bc.name.c_str(), bc.circuit.num_qubits(), base.cx_total,
                      sabre.cx_total, sabre.cx_add, nassc.cx_total,
                      nassc.cx_add, d_total, d_add, t_ratio);
        csv.push_back(line);
        std::fflush(stdout);
    }

    std::printf("\nGeometric mean dCNOT_total: %.2f%%  (paper: %s)\n",
                gm_total.reduction_percent(), paper_total);
    std::printf("Geometric mean dCNOT_add:   %.2f%%  (paper: %s)\n",
                gm_add.reduction_percent(), paper_add);

    write_csv(args.csv, csv);
    return 0;
}
