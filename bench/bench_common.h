#ifndef NASSC_BENCH_BENCH_COMMON_H
#define NASSC_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared harness code for the table/figure reproduction binaries.
 *
 * Every bench binary accepts:
 *   --seeds N    number of layout seeds averaged per cell (default 3;
 *                the paper averages 10 — pass --seeds 10 to match)
 *   --csv PATH   also write the table as CSV
 *   --threads N  sweep worker threads (default: hardware concurrency).
 *                Per-cell t(s) columns are measured per job, so under
 *                parallel contention they run higher than a sequential
 *                sweep; pass --threads 1 for paper-comparable timings.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
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
    std::string csv;
};

inline Args
parse_args(int argc, char **argv, int default_seeds = 3)
{
    Args a;
    a.seeds = default_seeds;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc)
            a.seeds = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
            a.threads = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
            a.csv = argv[++i];
    }
    if (a.seeds < 1)
        a.seeds = 1;
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
 * with next_cell() in the same order; each job's result depends only on
 * the job, so the folded metrics are the same for every thread count.
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
    }

    /** Fold the next `seeds` tickets (submission order) into a Cell. */
    Cell
    next_cell(int seeds, int base_cx, int base_depth)
    {
        Cell cell;
        for (int s = 0; s < seeds; ++s, ++next_) {
            try {
                cell.accumulate(*tickets_.at(next_).get());
            } catch (const std::exception &e) {
                throw std::runtime_error("batch job '" + tags_.at(next_) +
                                         "' failed: " + e.what());
            }
        }
        cell.finish(seeds, base_cx, base_depth);
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
    std::size_t next_ = 0;
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
    std::printf("csv written to %s\n", path.c_str());
}

} // namespace nassc::bench

#endif // NASSC_BENCH_BENCH_COMMON_H
