// Ablation: isolate the two NASSC mechanisms — the optimization-aware
// *cost function* (routing decisions) and the optimization-aware *SWAP
// decomposition* (orientation flags + 1q movement).  DESIGN.md calls this
// design choice out; the paper motivates both (Sec. IV-B vs IV-E) but
// only evaluates them together.

#include "bench_common.h"

using namespace nassc;
using namespace nassc::bench;

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv, kSeeds | kThreads);
    auto dev = std::make_shared<Backend>(linear_backend(25));

    // Per circuit: SABRE, NASSC with the fixed SWAP template, full NASSC.
    TranspileOptions cost_only;
    cost_only.orientation_aware_decomposition = false;
    Sweep sweep(args.threads);
    std::vector<BenchmarkCase> cases;
    for (BenchmarkCase &bc : table_benchmarks()) {
        if (bc.circuit.num_qubits() > dev->coupling.num_qubits())
            continue;
        sweep.add_cell(bc.name + "/sabre", bc.circuit, dev,
                       RoutingAlgorithm::kSabre, args.seeds);
        sweep.add_cell(bc.name + "/cost-only", bc.circuit, dev,
                       RoutingAlgorithm::kNassc, args.seeds, cost_only);
        sweep.add_cell(bc.name + "/full", bc.circuit, dev,
                       RoutingAlgorithm::kNassc, args.seeds);
        cases.push_back(std::move(bc));
    }

    std::printf("Ablation: cost function vs SWAP decomposition on %s "
                "(%d seeds)\n\n",
                dev->name.c_str(), args.seeds);
    std::printf("%-15s %9s %9s %9s %9s\n", "name", "SABRE", "cost-only",
                "full", "full-red%");

    for (const BenchmarkCase &bc : cases) {
        double s = sweep.next_cell(0, 0).cx_total;
        double c = sweep.next_cell(0, 0).cx_total;
        double f = sweep.next_cell(0, 0).cx_total;
        std::printf("%-15s %9.1f %9.1f %9.1f %8.2f%%\n", bc.name.c_str(),
                    s, c, f, 100.0 * (1.0 - f / s));
        std::fflush(stdout);
    }

    std::printf("\nReading: 'cost-only' routes like NASSC but expands "
                "SWAPs with the fixed template;\nthe gap to 'full' is the "
                "contribution of optimization-aware decomposition.\n");
    return 0;
}
