// Batch transpilation CLI: sweep the paper's benchmark circuits as
// tickets on one TranspileContext and report per-job metrics,
// throughput, and distance-cache reuse.
//
//   $ ./batch_transpile                                   # defaults
//   $ ./batch_transpile --backend grid --router both --seeds 5 --threads 8
//   $ ./batch_transpile --benchmarks qft_n15,vqe_n8 --noise-aware --csv out.csv
//
// Options:
//   --backend montreal|linear|grid   target device (default montreal)
//   --router nassc|sabre|both        routing cost model (default nassc)
//   --benchmarks all|NAME[,NAME...]  circuits to run (default all Table I)
//   --seeds N                        layout seeds per circuit (default 1)
//   --threads N                      worker threads (default: hardware)
//   --noise-aware                    HA noise-aware distance matrix
//   --derive-seeds                   decorrelate seeds from the batch seed
//   --csv PATH                       also write per-job results as CSV
//
// A bad flag or a value that is not a whole integer in range prints
// usage to stderr and exits 2.

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/transpile/context.h"

using namespace nassc;

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--backend montreal|linear|grid] "
                 "[--router nassc|sabre|both] "
                 "[--benchmarks all|NAME[,NAME...]] [--seeds N] "
                 "[--threads N] [--noise-aware] [--derive-seeds] "
                 "[--csv PATH]\n",
                 argv0, why.c_str(), argv0);
    std::exit(2);
}

/** The whole token as an integer >= `lo`; usage and exit 2 otherwise. */
int
parse_count(const char *argv0, const char *flag, const char *text, int lo)
{
    int v = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo)
        usage(argv0,
              std::string("bad value for ") + flag + ": '" + text + "'");
    return v;
}

std::vector<std::string>
split_csv_list(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string backend_name = "montreal";
    std::string router_name = "nassc";
    std::string benchmarks = "all";
    std::string csv_path;
    int seeds = 1;
    int threads = 0;
    bool noise_aware = false;
    bool derive_seeds = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--backend") && i + 1 < argc)
            backend_name = argv[++i];
        else if (!std::strcmp(argv[i], "--router") && i + 1 < argc)
            router_name = argv[++i];
        else if (!std::strcmp(argv[i], "--benchmarks") && i + 1 < argc)
            benchmarks = argv[++i];
        else if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc)
            seeds = parse_count(argv[0], "--seeds", argv[++i], 1);
        else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
            threads = parse_count(argv[0], "--threads", argv[++i], 0);
        else if (!std::strcmp(argv[i], "--noise-aware"))
            noise_aware = true;
        else if (!std::strcmp(argv[i], "--derive-seeds"))
            derive_seeds = true;
        else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
            csv_path = argv[++i];
        else
            usage(argv[0], std::string("unknown argument ") + argv[i]);
    }

    auto device = std::make_shared<Backend>(
        backend_name == "linear" ? linear_backend(25)
        : backend_name == "grid" ? grid_backend(5, 5)
                                 : montreal_backend());

    std::vector<RoutingAlgorithm> routers;
    if (router_name == "both" || router_name == "sabre")
        routers.push_back(RoutingAlgorithm::kSabre);
    if (router_name == "both" || router_name == "nassc")
        routers.push_back(RoutingAlgorithm::kNassc);
    if (routers.empty()) {
        std::fprintf(stderr, "unknown router: %s\n", router_name.c_str());
        return 2;
    }

    std::vector<BenchmarkCase> cases;
    if (benchmarks == "all") {
        cases = table_benchmarks();
    } else {
        for (const std::string &name : split_csv_list(benchmarks)) {
            try {
                cases.push_back({name, benchmark_by_name(name)});
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return 2;
            }
        }
    }
    if (cases.empty()) {
        std::fprintf(stderr, "no benchmarks selected\n");
        return 2;
    }

    // Every job is a ticket on one private context: the tickets share
    // its distance cache and run on its workers, and results are folded
    // back in submission order.
    TranspileContext ctx(TranspileContext::Config{
        std::make_shared<DistanceCache>(),
        threads > 0 ? std::make_shared<Scheduler>(threads) : nullptr, {}});
    struct Job
    {
        std::string tag;
        unsigned seed = 0;
        TranspileTicket ticket;
    };
    std::vector<Job> jobs;
    const auto t0 = std::chrono::steady_clock::now();
    for (const BenchmarkCase &bc : cases) {
        for (RoutingAlgorithm router : routers) {
            for (int s = 0; s < seeds; ++s) {
                Job job;
                job.tag = bc.name +
                          (router == RoutingAlgorithm::kNassc ? "/nassc"
                                                              : "/sabre") +
                          "/s" + std::to_string(s);
                TranspileOptions opts;
                opts.router = router;
                opts.noise_aware = noise_aware;
                opts.seed = derive_seeds
                                ? derive_job_seed(0, job.tag,
                                                  static_cast<unsigned>(s))
                                : static_cast<unsigned>(s);
                job.seed = opts.seed;
                job.ticket = ctx.submit(bc.circuit, device, opts);
                jobs.push_back(std::move(job));
            }
        }
    }

    std::printf("batch: %zu jobs on %s, %d thread(s)\n\n", jobs.size(),
                device->name.c_str(), ctx.scheduler().num_threads());
    std::printf("%-28s %6s %6s %6s %6s %8s\n", "job", "ok", "cx", "depth",
                "swaps", "t(s)");
    std::vector<std::string> csv;
    csv.push_back("tag,ok,seed,cx_total,depth,swaps,seconds,error");
    double cpu_seconds = 0.0;
    std::size_t num_failed = 0, num_route_reused = 0;
    long full_route_passes = 0;
    for (const Job &job : jobs) {
        SharedTranspileResult r;
        std::string error;
        try {
            r = job.ticket.get();
        } catch (const std::exception &e) {
            error = e.what();
        }
        if (r) {
            std::printf("%-28s %6s %6d %6d %6d %8.3f\n", job.tag.c_str(),
                        "yes", r->cx_total, r->depth,
                        r->routing_stats.num_swaps, r->seconds);
            cpu_seconds += r->seconds;
            num_route_reused += r->reused_search_route ? 1 : 0;
            full_route_passes += r->full_route_passes;
        } else {
            ++num_failed;
            std::printf("%-28s %6s  FAILED: %s\n", job.tag.c_str(), "no",
                        error.c_str());
        }
        // Error text is arbitrary; keep the CSV column count stable.
        for (char &c : error)
            if (c == ',' || c == '\n')
                c = ';';
        char line[256];
        std::snprintf(line, sizeof(line), "%s,%d,%u,%d,%d,%d,%.4f,%s",
                      job.tag.c_str(), r ? 1 : 0, job.seed,
                      r ? r->cx_total : -1, r ? r->depth : -1,
                      r ? r->routing_stats.num_swaps : -1,
                      r ? r->seconds : 0.0, error.c_str());
        csv.push_back(line);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    std::printf("\n%zu ok, %zu failed in %.3fs wall "
                "(%.1f jobs/s, %.2fx parallel speedup)\n",
                jobs.size() - num_failed, num_failed, wall,
                jobs.size() / wall, cpu_seconds / wall);
    const DistanceCache::Stats dstats = ctx.distances().stats();
    std::printf("distance matrices computed: %zu (cache hits: %zu)\n",
                dstats.computations, dstats.hits);
    std::printf("full routing passes: %ld (%zu job(s) reused the "
                "winning layout trial's routed pass)\n",
                full_route_passes, num_route_reused);

    if (!csv_path.empty()) {
        std::ofstream f(csv_path);
        for (const std::string &line : csv)
            f << line << "\n";
        std::printf("csv written to %s\n", csv_path.c_str());
    }
    return num_failed == 0 ? 0 : 1;
}
