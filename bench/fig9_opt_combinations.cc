// Reproduces Figure 9: CNOT reduction vs SABRE for the best of the 8
// enable/disable combinations of the three NASSC optimizations, compared
// with the all-enabled configuration, on three coupling maps
// (paper Sec. IV-F).
//
// Each coupling map's full sweep — SABRE baseline plus all 8 optimization
// masks for every benchmark and seed — is submitted as tickets on one
// shared Sweep.

#include "bench_common.h"

using namespace nassc;
using namespace nassc::bench;

int
main(int argc, char **argv)
{
    // 8 configurations x 15 benchmarks x 3 maps: default to one seed so
    // the default bench sweep stays quick; pass --seeds for averaging.
    Args args = parse_args(argc, argv, kSweepFlags, /*default_seeds=*/1);

    std::vector<std::shared_ptr<const Backend>> devices;
    devices.push_back(std::make_shared<Backend>(montreal_backend()));
    devices.push_back(std::make_shared<Backend>(linear_backend(25)));
    devices.push_back(std::make_shared<Backend>(grid_backend(5, 5)));

    std::vector<std::string> csv;
    csv.push_back("map,benchmark,sabre_cx,best_mask,best_cx,all_cx,"
                  "best_reduction_pct,all_reduction_pct");

    Sweep sweep(args.threads);
    const std::vector<BenchmarkCase> benchmarks = table_benchmarks();

    for (const auto &dev : devices) {
        std::printf("\nFig. 9 (%s): CNOT reduction vs SABRE "
                    "(%d seeds/cell)\n",
                    dev->name.c_str(), args.seeds);
        std::printf("%-15s %9s | %5s %9s %8s | %9s %8s\n", "name",
                    "CXsabre", "mask", "CXbest", "best%", "CXall", "all%");

        // Queue the device's whole sweep: per benchmark, the SABRE
        // baseline followed by the 8 optimization-mask configurations.
        // mask bit0 = C2q, bit1 = Ccommute1, bit2 = Ccommute2.
        std::vector<const BenchmarkCase *> cases;
        for (const BenchmarkCase &bc : benchmarks) {
            if (bc.circuit.num_qubits() > dev->coupling.num_qubits())
                continue;
            cases.push_back(&bc);
            sweep.add_cell(bc.name + "/sabre", bc.circuit, dev,
                           RoutingAlgorithm::kSabre, args.seeds);
            for (int mask = 0; mask < 8; ++mask) {
                TranspileOptions base;
                base.enable_c2q = mask & 1;
                base.enable_commute1 = mask & 2;
                base.enable_commute2 = mask & 4;
                sweep.add_cell(bc.name + "/m" + std::to_string(mask),
                               bc.circuit, dev, RoutingAlgorithm::kNassc,
                               args.seeds, base);
            }
        }

        for (const BenchmarkCase *bc : cases) {
            double sabre = sweep.next_cell(0, 0).cx_total;
            double best = 1e30;
            int best_mask = 0;
            double all = 0.0;
            for (int mask = 0; mask < 8; ++mask) {
                double cx = sweep.next_cell(0, 0).cx_total;
                if (cx < best) {
                    best = cx;
                    best_mask = mask;
                }
                if (mask == 7)
                    all = cx;
            }
            double best_red = 100.0 * (1.0 - best / sabre);
            double all_red = 100.0 * (1.0 - all / sabre);
            std::printf("%-15s %9.1f | %5d %9.1f %7.2f%% | %9.1f %7.2f%%\n",
                        bc->name.c_str(), sabre, best_mask, best, best_red,
                        all, all_red);
            char line[384];
            std::snprintf(line, sizeof(line),
                          "%s,%s,%.1f,%d,%.1f,%.1f,%.2f,%.2f",
                          dev->name.c_str(), bc->name.c_str(), sabre,
                          best_mask, best, all, best_red, all_red);
            csv.push_back(line);
            std::fflush(stdout);
        }
    }

    std::printf("\nExpectation (paper): enabling all three optimizations "
                "tracks the best of the 8 combinations closely on most "
                "benchmarks.\n");
    std::printf("distance matrices computed across all maps: %zu\n",
                sweep.distance_computations());
    write_csv(args.csv, csv);
    return 0;
}
