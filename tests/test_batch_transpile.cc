// Tests for in-process batch sweeps — every job a ticket on a
// TranspileContext: results must be bit-identical regardless of thread
// count and submission order, a throwing job must fail only its own
// ticket, and the context's shared DistanceCache must compute each
// backend's matrix exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <tuple>

#include "nassc/circuits/library.h"
#include "nassc/transpile/context.h"

namespace nassc {
namespace {

/** Everything deterministic about a TranspileResult, comparable. */
using Metrics = std::tuple<int, int, int, int, int, int, int, int, int,
                           std::size_t, std::vector<int>>;

Metrics
metrics_of(const TranspileResult &r)
{
    return {r.cx_total,
            r.depth,
            r.routing_stats.num_swaps,
            r.routing_stats.flagged_swaps,
            r.routing_stats.c2q_hits,
            r.routing_stats.commute1_hits,
            r.routing_stats.commute2_hits,
            r.routing_stats.moved_1q,
            r.routing_stats.forced_moves,
            r.circuit.size(),
            r.initial_l2p};
}

/** A context with a private distance cache and `threads` private
 *  workers — what the bench binaries and the batch CLI build. */
TranspileContext
private_context(int threads)
{
    return TranspileContext(TranspileContext::Config{
        std::make_shared<DistanceCache>(),
        std::make_shared<Scheduler>(threads), {}});
}

struct Job
{
    std::string tag;
    QuantumCircuit circuit;
    TranspileOptions options;
};

/** Submit every job, then fold the tickets back by tag.  Every ticket
 *  must own a fresh transpile: a cache hit would make the comparison
 *  vacuous. */
std::map<std::string, Metrics>
run_sweep(TranspileContext &ctx, const std::vector<Job> &jobs,
          const std::shared_ptr<const Backend> &dev)
{
    std::vector<TranspileTicket> tickets;
    for (const Job &job : jobs)
        tickets.push_back(ctx.submit(job.circuit, dev, job.options));
    std::map<std::string, Metrics> m;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(tickets[i].source(), TicketSource::kScheduled)
            << jobs[i].tag;
        m[jobs[i].tag] = metrics_of(*tickets[i].get());
    }
    return m;
}

/** One NASSC + one SABRE job per Table I benchmark. */
std::vector<Job>
table1_jobs()
{
    std::vector<Job> jobs;
    for (const BenchmarkCase &bc : table_benchmarks()) {
        for (RoutingAlgorithm router :
             {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
            Job job;
            job.tag = bc.name + (router == RoutingAlgorithm::kNassc
                                     ? "/nassc"
                                     : "/sabre");
            job.circuit = bc.circuit;
            job.options.router = router;
            job.options.seed = 0;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** Shared reference run so the suite transpiles Table I only once. */
class BatchTable1 : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dev_ = std::make_shared<Backend>(montreal_backend());
        jobs_ = table1_jobs();
        TranspileContext ctx = private_context(1);
        reference_ = run_sweep(ctx, jobs_, dev_);
        ASSERT_EQ(reference_.size(), jobs_.size());
    }

    static std::shared_ptr<const Backend> dev_;
    static std::vector<Job> jobs_;
    static std::map<std::string, Metrics> reference_;
};

std::shared_ptr<const Backend> BatchTable1::dev_;
std::vector<Job> BatchTable1::jobs_;
std::map<std::string, Metrics> BatchTable1::reference_;

TEST_F(BatchTable1, IdenticalAcrossThreadCounts)
{
    for (int threads : {2, 8}) {
        TranspileContext ctx = private_context(threads);
        EXPECT_EQ(run_sweep(ctx, jobs_, dev_), reference_)
            << "metrics diverged at " << threads << " threads";
    }
}

TEST_F(BatchTable1, IdenticalAcrossSubmissionOrders)
{
    std::vector<Job> shuffled = jobs_;
    std::mt19937 rng(42);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    TranspileContext ctx = private_context(4);
    EXPECT_EQ(run_sweep(ctx, shuffled, dev_), reference_);
}

TEST(BatchSweep, FailedJobDoesNotPoisonBatch)
{
    auto dev = std::make_shared<Backend>(montreal_backend());
    TranspileContext ctx = private_context(2);

    TranspileOptions first, second;
    second.seed = 1;
    TranspileTicket good1 = ctx.submit(ghz(5), dev, first);
    // 40 logical qubits on a 27-qubit device.
    TranspileTicket too_wide = ctx.submit(ghz(40), dev);
    TranspileTicket good2 = ctx.submit(ghz(5), dev, second);
    // A job without a backend is refused before anything is queued.
    EXPECT_THROW(ctx.submit(ghz(3), nullptr), std::invalid_argument);

    try {
        too_wide.get();
        ADD_FAILURE() << "too-wide circuit transpiled";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("more logical than physical"),
                  std::string::npos)
            << e.what();
    }

    // Jobs around the failure are unaffected: same result as a solo run.
    EXPECT_EQ(metrics_of(*good1.get()),
              metrics_of(transpile(ghz(5), *dev, first)));
    EXPECT_EQ(metrics_of(*good2.get()),
              metrics_of(transpile(ghz(5), *dev, second)));
    const ServiceStats stats = ctx.service().stats();
    EXPECT_EQ(stats.transpiles_ok, 2u);
    EXPECT_EQ(stats.transpiles_failed, 1u);
}

TEST(BatchSweep, DistanceCacheComputesOncePerBackend)
{
    auto montreal = std::make_shared<Backend>(montreal_backend());
    auto grid = std::make_shared<Backend>(grid_backend(5, 5));
    TranspileContext ctx = private_context(8);

    // Seeds [first, first + 6) on both backends: 12 fresh transpiles.
    auto sweep = [&](unsigned first) {
        std::vector<TranspileTicket> tickets;
        for (unsigned s = first; s < first + 6; ++s) {
            TranspileOptions opts;
            opts.seed = s;
            tickets.push_back(ctx.submit(qft(6), montreal, opts));
            tickets.push_back(ctx.submit(qft(6), grid, opts));
        }
        for (const TranspileTicket &t : tickets) {
            EXPECT_EQ(t.source(), TicketSource::kScheduled);
            EXPECT_FALSE(t.get()->circuit.empty());
        }
        return tickets.size();
    };

    const std::size_t jobs = sweep(0);
    // 12 jobs, 2 distinct (backend, metric) keys -> exactly 2 computations.
    DistanceCache::Stats cache_stats = ctx.distances().stats();
    EXPECT_EQ(cache_stats.computations, 2u);
    EXPECT_EQ(cache_stats.hits, jobs - 2);

    // A second sweep of new seeds on the same context computes nothing.
    sweep(6);
    cache_stats = ctx.distances().stats();
    EXPECT_EQ(cache_stats.computations, 2u);
    EXPECT_EQ(cache_stats.hits, 2 * jobs - 2);
}

/** True when every row of `a` and `b` is bitwise equal. */
bool
same_rows(const DistanceProvider &a, const DistanceProvider &b)
{
    if (a.num_qubits() != b.num_qubits())
        return false;
    for (int i = 0; i < a.num_qubits(); ++i)
        if (std::memcmp(a.row(i).data, b.row(i).data, a.row_bytes()) != 0)
            return false;
    return true;
}

TEST(DistanceCache, KeysSeparateBackendsAndMetrics)
{
    Backend montreal = montreal_backend();
    Backend linear = linear_backend(25);

    DistanceCache cache;
    SharedDistanceProvider hops1 = cache.provider(montreal);
    SharedDistanceProvider hops2 = cache.provider(montreal);
    EXPECT_EQ(hops1.get(), hops2.get()); // same shared provider
    EXPECT_EQ(cache.stats().computations, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    SharedDistanceProvider noise =
        cache.provider(montreal, DistanceRequest::noise());
    EXPECT_NE(noise.get(), hops1.get());
    SharedDistanceProvider other = cache.provider(linear);
    EXPECT_NE(other.get(), hops1.get());
    EXPECT_EQ(cache.stats().computations, 3u);
    EXPECT_EQ(cache.stats().entries, 3u);

    // The cached providers match a direct computation.
    EXPECT_TRUE(same_rows(*hops1, hop_distance(montreal.coupling)));
    EXPECT_TRUE(same_rows(*noise, noise_aware_distance(montreal)));

    // A calibration rotation drops montreal's entries and recomputes,
    // but handed-out providers stay valid.
    Backend rotated = montreal;
    rotated.calibration.error_cx.begin()->second *= 1.5;
    SharedDistanceProvider hops3 = cache.provider(rotated);
    EXPECT_NE(hops3.get(), hops1.get());
    EXPECT_EQ(cache.stats().entries, 2u); // linear + rotated montreal
    EXPECT_TRUE(same_rows(*hops3, *hops1));
    EXPECT_EQ(cache.stats().computations, 4u);

    // Alphas that differ past the 9th significant digit are different
    // metrics: they must not share a key, and so not a provider.
    DistanceCache fresh;
    const SharedDistanceProvider a =
        fresh.provider(montreal, DistanceRequest::noise(0.5, 0.0, 0.5));
    const SharedDistanceProvider b = fresh.provider(
        montreal, DistanceRequest::noise(0.5000000001, 0.0, 0.5));
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(fresh.stats().computations, 2u);
    EXPECT_EQ(fresh.stats().hits, 0u);
}

TEST(BatchSweep, DerivedSeedsAreOrderIndependent)
{
    EXPECT_EQ(derive_job_seed(7, "qft_n15", 2), derive_job_seed(7, "qft_n15", 2));
    EXPECT_NE(derive_job_seed(7, "qft_n15", 2), derive_job_seed(7, "qft_n15", 3));
    EXPECT_NE(derive_job_seed(7, "qft_n15", 2), derive_job_seed(8, "qft_n15", 2));
    EXPECT_NE(derive_job_seed(7, "qft_n15", 2), derive_job_seed(7, "qft_n20", 2));
    // Pinned: `batch_transpile --derive-seeds` seeds must not drift.
    EXPECT_EQ(derive_job_seed(0, "qft_n15/sabre/s0", 0), 4103136734u);
    EXPECT_EQ(derive_job_seed(0, "qft_n15/sabre/s1", 1), 2433676515u);

    // Derived-seed jobs give the same per-tag results in either
    // submission order.
    auto dev = std::make_shared<Backend>(montreal_backend());
    std::vector<Job> jobs;
    for (unsigned s = 0; s < 3; ++s) {
        Job job;
        job.tag = "bv/s" + std::to_string(s);
        job.circuit = bernstein_vazirani(10, 0x2bd);
        job.options.seed = derive_job_seed(99, job.tag, s);
        jobs.push_back(std::move(job));
    }
    TranspileContext forward = private_context(2);
    const std::map<std::string, Metrics> a = run_sweep(forward, jobs, dev);
    std::reverse(jobs.begin(), jobs.end());
    TranspileContext backward = private_context(2);
    EXPECT_EQ(run_sweep(backward, jobs, dev), a);
}

} // namespace
} // namespace nassc
