// Reproduces Figure 11: additional CNOT count and success rate of four
// routing configurations (SABRE, NASSC, SABRE+HA, NASSC+HA) under the
// ibmq_montreal noise model (paper Sec. VI-D; 8192 trials each).

#include "bench_common.h"
#include "nassc/sim/noise.h"

using namespace nassc;
using namespace nassc::bench;

namespace {

struct Config
{
    const char *label;
    RoutingAlgorithm router;
    bool noise_aware;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv, kSweepFlags | kTrials,
                           /*default_seeds=*/2, /*default_trials=*/8192);
    if (args.trials < args.seeds) {
        // Each seed gets trials / seeds shots; fewer than one is no run.
        std::fprintf(stderr,
                     "%s: --trials (%d) must be at least --seeds (%d)\n",
                     argv[0], args.trials, args.seeds);
        return 2;
    }

    auto dev = std::make_shared<Backend>(montreal_backend());
    NoiseModel nm = NoiseModel::from_backend(*dev);

    const Config configs[] = {
        {"SABRE", RoutingAlgorithm::kSabre, false},
        {"NASSC", RoutingAlgorithm::kNassc, false},
        {"SABRE+HA", RoutingAlgorithm::kSabre, true},
        {"NASSC+HA", RoutingAlgorithm::kNassc, true},
    };

    const std::vector<BenchmarkCase> benchmarks = fig11_benchmarks();
    Sweep sweep(args.threads);
    for (const BenchmarkCase &bc : benchmarks) {
        for (const Config &cfg : configs) {
            TranspileOptions opts;
            opts.noise_aware = cfg.noise_aware;
            sweep.add_cell(bc.name + "/" + cfg.label, bc.circuit, dev,
                           cfg.router, args.seeds, opts);
        }
    }

    std::printf("Fig. 11: noise-model comparison on %s "
                "(%d trials, %d seeds)\n\n",
                dev->name.c_str(), args.trials, args.seeds);
    std::printf("%-15s | %10s %10s %10s %10s | metric\n", "benchmark",
                "SABRE", "NASSC", "SABRE+HA", "NASSC+HA");

    std::vector<std::string> csv;
    csv.push_back("benchmark,config,cx_add,success_rate");

    for (const BenchmarkCase &bc : benchmarks) {
        TranspileResult base = optimize_only(bc.circuit);
        uint64_t ideal = ideal_outcome(bc.circuit);

        double add[4] = {0, 0, 0, 0};
        double succ[4] = {0, 0, 0, 0};
        for (int c = 0; c < 4; ++c) {
            const std::vector<SharedTranspileResult> results =
                sweep.next_results();
            for (int s = 0; s < args.seeds; ++s) {
                const TranspileResult &r = *results[s];
                add[c] += r.cx_total - base.cx_total;
                SuccessRate sr = monte_carlo_success(
                    r.circuit, nm, r.final_l2p, ideal,
                    args.trials / args.seeds, 1000 + s);
                succ[c] += sr.rate;
            }
            add[c] /= args.seeds;
            succ[c] /= args.seeds;
            char line[256];
            std::snprintf(line, sizeof(line), "%s,%s,%.1f,%.4f",
                          bc.name.c_str(), configs[c].label, add[c],
                          succ[c]);
            csv.push_back(line);
        }

        std::printf("%-15s | %10.1f %10.1f %10.1f %10.1f | add. CNOTs\n",
                    bc.name.c_str(), add[0], add[1], add[2], add[3]);
        std::printf("%-15s | %10.4f %10.4f %10.4f %10.4f | success\n", "",
                    succ[0], succ[1], succ[2], succ[3]);
        std::fflush(stdout);
    }

    std::printf("\nExpectation (paper): NASSC has the fewest additional "
                "CNOTs and the best success rate.\n");
    write_csv(args.csv, csv);
    return 0;
}
