// Tests for the parallel batch-transpilation engine: results must be
// bit-identical regardless of thread count and job submission order, a
// throwing job must surface as a failed result without poisoning its
// batch, and the shared DistanceCache must compute each backend's
// matrix exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>

#include "nassc/circuits/library.h"
#include "nassc/service/batch_transpiler.h"

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

std::map<std::string, Metrics>
metrics_by_tag(const BatchReport &report)
{
    std::map<std::string, Metrics> m;
    for (const JobResult &jr : report.results) {
        EXPECT_TRUE(jr.ok) << jr.tag << ": " << jr.error;
        if (jr.ok)
            m[jr.tag] = metrics_of(jr.result);
    }
    return m;
}

/** One NASSC + one SABRE job per Table I benchmark. */
std::vector<TranspileJob>
table1_jobs(const std::shared_ptr<const Backend> &dev)
{
    std::vector<TranspileJob> jobs;
    for (const BenchmarkCase &bc : table_benchmarks()) {
        for (RoutingAlgorithm router :
             {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
            TranspileJob job;
            job.tag = bc.name + (router == RoutingAlgorithm::kNassc
                                     ? "/nassc"
                                     : "/sabre");
            job.circuit = bc.circuit;
            job.backend = dev;
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
        jobs_ = table1_jobs(dev_);
        BatchOptions opts;
        opts.num_threads = 1;
        reference_ = metrics_by_tag(BatchTranspiler(opts).run(jobs_));
        ASSERT_EQ(reference_.size(), jobs_.size());
    }

    static std::shared_ptr<const Backend> dev_;
    static std::vector<TranspileJob> jobs_;
    static std::map<std::string, Metrics> reference_;
};

std::shared_ptr<const Backend> BatchTable1::dev_;
std::vector<TranspileJob> BatchTable1::jobs_;
std::map<std::string, Metrics> BatchTable1::reference_;

TEST_F(BatchTable1, IdenticalAcrossThreadCounts)
{
    for (int threads : {2, 8}) {
        BatchOptions opts;
        opts.num_threads = threads;
        BatchReport report = BatchTranspiler(opts).run(jobs_);
        EXPECT_EQ(metrics_by_tag(report), reference_)
            << "metrics diverged at " << threads << " threads";
        // Submission order must be preserved in the results.
        for (std::size_t i = 0; i < report.results.size(); ++i) {
            EXPECT_EQ(report.results[i].index, i);
            EXPECT_EQ(report.results[i].tag, jobs_[i].tag);
        }
    }
}

TEST_F(BatchTable1, IdenticalAcrossSubmissionOrders)
{
    std::vector<TranspileJob> shuffled = jobs_;
    std::mt19937 rng(42);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    BatchOptions opts;
    opts.num_threads = 4;
    BatchReport report = BatchTranspiler(opts).run(shuffled);
    EXPECT_EQ(metrics_by_tag(report), reference_);
}

TEST(BatchTranspiler, FailedJobDoesNotPoisonBatch)
{
    auto dev = std::make_shared<Backend>(montreal_backend());

    TranspileJob good;
    good.tag = "good";
    good.circuit = ghz(5);
    good.backend = dev;

    TranspileJob too_wide; // 40 logical qubits on a 27-qubit device
    too_wide.tag = "too_wide";
    too_wide.circuit = ghz(40);
    too_wide.backend = dev;

    TranspileJob no_backend;
    no_backend.tag = "no_backend";
    no_backend.circuit = ghz(3);

    BatchOptions opts;
    opts.num_threads = 2;
    BatchTranspiler engine(opts);
    BatchReport report = engine.run({good, too_wide, no_backend, good});

    ASSERT_EQ(report.results.size(), 4u);
    EXPECT_EQ(report.num_ok, 2u);
    EXPECT_EQ(report.num_failed, 2u);

    EXPECT_TRUE(report.results[0].ok);
    EXPECT_FALSE(report.results[1].ok);
    EXPECT_NE(report.results[1].error.find("more logical than physical"),
              std::string::npos)
        << report.results[1].error;
    EXPECT_FALSE(report.results[2].ok);
    EXPECT_FALSE(report.results[2].error.empty());
    EXPECT_TRUE(report.results[3].ok);

    // Jobs around the failures are unaffected: same result as a solo run.
    TranspileResult solo = transpile(good.circuit, *dev, good.options);
    EXPECT_EQ(metrics_of(report.results[0].result), metrics_of(solo));
    EXPECT_EQ(metrics_of(report.results[3].result), metrics_of(solo));
}

TEST(BatchTranspiler, DistanceCacheComputesOncePerBackend)
{
    auto montreal = std::make_shared<Backend>(montreal_backend());
    auto grid = std::make_shared<Backend>(grid_backend(5, 5));

    std::vector<TranspileJob> jobs;
    for (int s = 0; s < 6; ++s) {
        TranspileJob job;
        job.tag = "m" + std::to_string(s);
        job.circuit = qft(6);
        job.backend = montreal;
        job.options.seed = static_cast<unsigned>(s);
        jobs.push_back(job);
        job.tag = "g" + std::to_string(s);
        job.backend = grid;
        jobs.push_back(job);
    }

    BatchOptions opts;
    opts.num_threads = 8;
    BatchTranspiler engine(opts);
    BatchReport report = engine.run(jobs);
    EXPECT_EQ(report.num_ok, jobs.size());
    // 12 jobs, 2 distinct (backend, metric) keys -> exactly 2 computations.
    EXPECT_EQ(report.distance_computations, 2u);
    const DistanceCache::Stats cache_stats = engine.distance_cache().stats();
    EXPECT_EQ(cache_stats.computations, 2u);
    EXPECT_EQ(cache_stats.hits, jobs.size() - 2);

    // A second batch on the same engine is served entirely from cache.
    BatchReport again = engine.run(jobs);
    EXPECT_EQ(again.num_ok, jobs.size());
    EXPECT_EQ(again.distance_computations, 0u);
}

/** Flat matrix of a dense provider (throws std::bad_cast if sparse). */
const DistanceMatrix &
dense_matrix(const DistanceProvider &p)
{
    return dynamic_cast<const DenseDistanceProvider &>(p).matrix();
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

    // The cached dense providers match a direct computation.
    EXPECT_EQ(dense_matrix(*hops1), hop_distance(montreal.coupling).matrix());
    EXPECT_EQ(dense_matrix(*noise), noise_aware_distance(montreal).matrix());

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    // Cleared entries recompute, but handed-out providers stay valid.
    SharedDistanceProvider hops3 = cache.provider(montreal);
    EXPECT_EQ(dense_matrix(*hops3), dense_matrix(*hops1));
    EXPECT_EQ(cache.stats().computations, 4u);
}

TEST(BatchTranspiler, DerivedSeedsAreOrderIndependent)
{
    EXPECT_EQ(derive_job_seed(7, "qft_n15", 2), derive_job_seed(7, "qft_n15", 2));
    EXPECT_NE(derive_job_seed(7, "qft_n15", 2), derive_job_seed(7, "qft_n15", 3));
    EXPECT_NE(derive_job_seed(7, "qft_n15", 2), derive_job_seed(8, "qft_n15", 2));
    EXPECT_NE(derive_job_seed(7, "qft_n15", 2), derive_job_seed(7, "qft_n20", 2));

    auto dev = std::make_shared<Backend>(montreal_backend());
    std::vector<TranspileJob> jobs;
    for (int s = 0; s < 3; ++s) {
        TranspileJob job;
        job.tag = "bv/s" + std::to_string(s);
        job.circuit = bernstein_vazirani(10, 0x2bd);
        job.backend = dev;
        job.options.seed = static_cast<unsigned>(s);
        jobs.push_back(std::move(job));
    }

    BatchOptions opts;
    opts.num_threads = 2;
    opts.derive_seeds = true;
    opts.base_seed = 99;
    BatchReport report = BatchTranspiler(opts).run(jobs);
    for (const JobResult &jr : report.results) {
        EXPECT_TRUE(jr.ok);
        EXPECT_EQ(jr.seed_used,
                  derive_job_seed(99, jr.tag, static_cast<unsigned>(jr.index)));
    }
}

} // namespace
} // namespace nassc
