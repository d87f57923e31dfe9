#ifndef NASSC_BENCH_BENCH_COMMON_H
#define NASSC_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared harness code for the table/figure reproduction binaries.
 *
 * The bench binaries share these flags, each binary accepting only the
 * ones it honours (see parse_args):
 *   --seeds N    number of layout seeds averaged per cell (default 3;
 *                the paper averages 10 — pass --seeds 10 to match)
 *   --csv PATH   also write the table as CSV
 *   --threads N  sweep worker threads (default: hardware concurrency).
 *                Per-cell t(s) columns are measured per job, so under
 *                parallel contention they run higher than a sequential
 *                sweep; pass --threads 1 for paper-comparable timings.
 *   --trials N   Monte Carlo shots per cell (fig11_noise_success).
 * An unknown flag, a flag the binary does not honour, a missing value
 * or a value that is not a whole integer in range prints a usage line
 * listing the binary's own flags to stderr and exits 2.
 */

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/transpile/context.h"

namespace nassc::bench {

struct Args
{
    int seeds = 3;
    int threads = 0; ///< sweep workers; 0 = hardware concurrency
    int trials = 0;  ///< Monte Carlo shots; set only where --trials exists
    std::string csv;
};

/** The shared flags, as a set of the ones a binary honours. */
enum Flag : unsigned {
    kSeeds = 1u << 0,
    kThreads = 1u << 1,
    kCsv = 1u << 2,
    kTrials = 1u << 3,
};

/** What a table sweep honours: seeds, sweep threads and a CSV copy. */
inline constexpr unsigned kSweepFlags = kSeeds | kThreads | kCsv;

/**
 * Parse the flags in `flags`; any other flag is rejected like an
 * unknown one.  --trials needs `default_trials`.
 */
inline Args
parse_args(int argc, char **argv, unsigned flags = kSweepFlags,
           int default_seeds = 3, int default_trials = 0)
{
    Args a;
    a.seeds = default_seeds;
    a.trials = default_trials;
    auto fail = [&](const std::string &why) {
        std::fprintf(stderr, "%s: %s\nusage: %s%s%s%s%s\n", argv[0],
                     why.c_str(), argv[0],
                     flags & kSeeds ? " [--seeds N]" : "",
                     flags & kThreads ? " [--threads N]" : "",
                     flags & kCsv ? " [--csv PATH]" : "",
                     flags & kTrials ? " [--trials N]" : "");
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const unsigned bit = flag == "--seeds"     ? kSeeds
                             : flag == "--threads" ? kThreads
                             : flag == "--csv"     ? kCsv
                             : flag == "--trials"  ? kTrials
                                                   : 0u;
        if (!(flags & bit))
            fail("unknown flag " + flag);
        int *target = bit == kSeeds     ? &a.seeds
                      : bit == kThreads ? &a.threads
                      : bit == kTrials  ? &a.trials
                                        : nullptr;
        if (i + 1 >= argc)
            fail(flag + " needs a value");
        const char *value = argv[++i];
        if (!target) {
            a.csv = value;
            continue;
        }
        // --threads 0 means "hardware concurrency"; counts start at 1.
        const int lo = target == &a.threads ? 0 : 1;
        const char *end = value + std::strlen(value);
        const auto [ptr, ec] = std::from_chars(value, end, *target);
        if (ec != std::errc() || ptr != end || *target < lo)
            fail("bad value for " + flag + ": '" + value + "'");
    }
    return a;
}

/** Seed-averaged metrics of one (benchmark, router) cell. */
struct Cell
{
    double cx_total = 0.0;
    double cx_add = 0.0;
    double depth_total = 0.0;
    double depth_add = 0.0;
    double seconds = 0.0;
    RoutingStats stats; // accumulated over seeds

    void
    accumulate(const TranspileResult &r)
    {
        cx_total += r.cx_total;
        depth_total += r.depth;
        seconds += r.seconds;
        stats.num_swaps += r.routing_stats.num_swaps;
        stats.flagged_swaps += r.routing_stats.flagged_swaps;
        stats.c2q_hits += r.routing_stats.c2q_hits;
        stats.commute1_hits += r.routing_stats.commute1_hits;
        stats.commute2_hits += r.routing_stats.commute2_hits;
    }

    void
    finish(int seeds, int base_cx, int base_depth)
    {
        cx_total /= seeds;
        depth_total /= seeds;
        seconds /= seeds;
        cx_add = cx_total - base_cx;
        depth_add = depth_total - base_depth;
    }
};

/**
 * One in-process sweep: every job is a ticket on a private
 * TranspileContext, so the whole sweep shares one DistanceCache (one
 * matrix per backend) and runs on `threads` private workers (0 =
 * Scheduler::shared()).  Queue cells with add_cell() and fold them back
 * in the same order with next_results() or next_cell(); each job's
 * result depends only on the job, so the folded metrics are the same
 * for every thread count.
 */
class Sweep
{
  public:
    explicit Sweep(int threads)
        : ctx_(TranspileContext::Config{
              std::make_shared<DistanceCache>(),
              threads > 0 ? std::make_shared<Scheduler>(threads) : nullptr,
              {}})
    {
    }

    /** Submit `seeds` jobs (seeds 0..seeds-1) for one cell. */
    void
    add_cell(const std::string &tag, const QuantumCircuit &circuit,
             const std::shared_ptr<const Backend> &backend,
             RoutingAlgorithm router, int seeds, TranspileOptions opts = {})
    {
        if (tickets_.empty())
            t0_ = std::chrono::steady_clock::now();
        opts.router = router;
        for (int s = 0; s < seeds; ++s) {
            opts.seed = static_cast<unsigned>(s);
            tags_.push_back(tag + "/s" + std::to_string(s));
            tickets_.push_back(ctx_.submit(circuit, backend, opts));
        }
        cell_seeds_.push_back(seeds);
    }

    /** The next cell's results (submission order), one per seed. */
    std::vector<SharedTranspileResult>
    next_results()
    {
        std::vector<SharedTranspileResult> out;
        for (int s = 0; s < cell_seeds_.at(next_cell_); ++s, ++next_) {
            try {
                out.push_back(tickets_.at(next_).get());
            } catch (const std::exception &e) {
                throw std::runtime_error("batch job '" + tags_.at(next_) +
                                         "' failed: " + e.what());
            }
            tickets_[next_] = {}; // a folded result need not stay alive
        }
        ++next_cell_;
        return out;
    }

    /** The next cell's results averaged over its seeds. */
    Cell
    next_cell(int base_cx, int base_depth)
    {
        const std::vector<SharedTranspileResult> results = next_results();
        Cell cell;
        for (const SharedTranspileResult &r : results)
            cell.accumulate(*r);
        cell.finish(static_cast<int>(results.size()), base_cx, base_depth);
        return cell;
    }

    std::size_t jobs() const { return tickets_.size(); }

    /** Wall seconds since the first submit. */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    std::size_t
    distance_computations() const
    {
        return ctx_.distances().stats().computations;
    }

  private:
    TranspileContext ctx_;
    std::vector<std::string> tags_;
    std::vector<TranspileTicket> tickets_;
    std::vector<int> cell_seeds_; ///< jobs per cell, submission order
    std::size_t next_ = 0;        ///< next ticket to fold
    std::size_t next_cell_ = 0;   ///< next cell to fold
    std::chrono::steady_clock::time_point t0_;
};

/** Geometric mean of ratios 1 - nassc/sabre, reported as percent. */
class GeoMean
{
  public:
    void
    add_ratio(double nassc, double sabre)
    {
        if (sabre <= 0.0 || nassc <= 0.0)
            return; // degenerate cell; skip like the paper's tooling
        log_sum_ += std::log(nassc / sabre);
        ++n_;
    }

    double
    reduction_percent() const
    {
        if (n_ == 0)
            return 0.0;
        return 100.0 * (1.0 - std::exp(log_sum_ / n_));
    }

  private:
    double log_sum_ = 0.0;
    int n_ = 0;
};

inline void
write_csv(const std::string &path, const std::vector<std::string> &rows)
{
    if (path.empty())
        return;
    std::ofstream f(path);
    for (const std::string &r : rows)
        f << r << "\n";
    if (!f.flush()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::printf("csv written to %s\n", path.c_str());
}

} // namespace nassc::bench

#endif // NASSC_BENCH_BENCH_COMMON_H
