#ifndef NASSC_SERVICE_BATCH_TRANSPILER_H
#define NASSC_SERVICE_BATCH_TRANSPILER_H

/**
 * @file
 * Parallel batch transpilation engine.
 *
 * BatchTranspiler runs many (circuit, backend, TranspileOptions) jobs
 * across the work-stealing Scheduler.  Three properties the bench/
 * table and figure binaries rely on:
 *
 *  - Determinism: a job's result depends only on the job itself (the
 *    routers take explicit seeds and share no mutable state), and
 *    results are returned in submission order.  Metrics are therefore
 *    bit-identical regardless of thread count, steal schedule, or
 *    completion order.
 *  - Shared distance matrices: all jobs resolve their backend's
 *    distance matrix through one DistanceCache, so a batch of N jobs on
 *    one backend computes the matrix once, not N times.
 *  - Error isolation: a throwing job becomes a failed JobResult with
 *    the exception message; it never tears down the pool or poisons
 *    sibling jobs.
 *
 * Since the scheduler is multi-job, concurrent BatchTranspiler::run()
 * calls from distinct threads interleave on the same workers instead
 * of serializing behind each other.
 *
 * Every job is transpiled; nothing is deduplicated.  Callers that want
 * identical requests coalesced or served from a result cache submit
 * them to a TranspileService (service/transpile_service.h) instead.
 */

#include <memory>
#include <string>
#include <vector>

#include "nassc/service/distance_cache.h"
#include "nassc/service/scheduler.h"
#include "nassc/transpile/transpile.h"

namespace nassc {

/** One unit of batch work. */
struct TranspileJob
{
    std::string tag; ///< caller-chosen label, reported back in the result
    QuantumCircuit circuit;
    /** Target device; shared_ptr so a sweep over one device is cheap. */
    std::shared_ptr<const Backend> backend;
    TranspileOptions options;
};

/** Outcome of one job. */
struct JobResult
{
    std::size_t index = 0; ///< submission index within the batch
    std::string tag;
    bool ok = false;
    std::string error;       ///< exception message when !ok
    unsigned seed_used = 0;  ///< effective seed after batch derivation
    TranspileResult result;  ///< valid only when ok
};

/** Engine configuration. */
struct BatchOptions
{
    /**
     * Concurrent jobs cap; 0 picks std::thread::hardware_concurrency().
     * This caps the worker slots taken from the scheduler per run.
     */
    int num_threads = 0;
    /**
     * When true, each job's seed becomes a deterministic mix of
     * base_seed, the job tag, and the job's own seed — so sweeps get
     * decorrelated layouts without hand-numbering seeds, and a job's
     * seed is independent of its position in the batch.
     */
    bool derive_seeds = false;
    unsigned base_seed = 0;
    /** Cache shared by all jobs; defaults to a fresh private cache. */
    std::shared_ptr<DistanceCache> cache;
    /**
     * Scheduler to run on; defaults to Scheduler::shared(), which
     * LayoutSearch also uses — so a saturating batch automatically
     * degrades per-job layout trials to inline execution instead of
     * oversubscribing (see scheduler.h).
     */
    std::shared_ptr<Scheduler> scheduler;
};

/** Aggregate outcome of BatchTranspiler::run(). */
struct BatchReport
{
    std::vector<JobResult> results; ///< submission order
    std::size_t num_ok = 0;
    std::size_t num_failed = 0;
    double seconds = 0.0; ///< wall-clock for the whole batch
    /** Distance matrices computed (vs served from cache) by this run. */
    std::size_t distance_computations = 0;
    /** Transpiles this run executed that reused the winning layout
     *  trial's routed pass (no separate post-search routing step). */
    std::size_t num_route_reused = 0;
    /** Full-circuit routing passes this run performed (sum of
     *  TranspileResult::full_route_passes over successful jobs).  With
     *  reuse every kSabre transpile contributes one pass fewer. */
    long full_route_passes = 0;
};

/**
 * Deterministic per-job seed: a stable mix of the batch seed, the job
 * tag, and the job's own option seed.  Pure function of its arguments —
 * never of submission order.
 */
unsigned derive_job_seed(unsigned base_seed, const std::string &tag,
                         unsigned job_seed);

/** Scheduler-backed batch engine over transpile(). */
class BatchTranspiler
{
  public:
    explicit BatchTranspiler(BatchOptions options = {});

    /** Run all jobs; blocks until every job has a result. */
    BatchReport run(const std::vector<TranspileJob> &jobs) const;

    /** Worker slots run() will use for a batch of `jobs` jobs. */
    int num_threads_for(std::size_t jobs) const;

    DistanceCache &distance_cache() const;

    Scheduler &scheduler() const;

  private:
    TranspileOptions effective_options(const TranspileJob &job) const;

    BatchOptions options_;
    std::shared_ptr<DistanceCache> cache_;
    std::shared_ptr<Scheduler> scheduler_; ///< null = Scheduler::shared()
};

} // namespace nassc

#endif // NASSC_SERVICE_BATCH_TRANSPILER_H
