#ifndef NASSC_TRANSPILE_CONTEXT_H
#define NASSC_TRANSPILE_CONTEXT_H

/**
 * @file
 * TranspileContext: one object that owns everything a transpile needs.
 *
 * Historically the entry points were free functions threading their
 * dependencies by hand: a 4-arg transpile() taking an explicit
 * DistanceCache, a 3-arg overload hard-wired to DistanceCache::global(),
 * and a separately-constructed TranspileService for the async path.
 * Every call site chose an overload, and the choice silently decided
 * which caches it shared with the rest of the process.
 *
 * TranspileContext collapses that split: it bundles the distance-matrix
 * cache, the scheduler, and a lazily-created TranspileService behind one
 * handle with both synchronous (transpile / optimize_only) and
 * asynchronous (submit, or service().submit_qasm for QASM text) entry
 * points, all guaranteed to share the same caches.  The free functions
 * remain as thin shims —
 * the 3-arg transpile() now forwards through TranspileContext::global(),
 * so "the old API" and "the new API" are one code path.
 *
 *  - TranspileContext::global(): the process-wide context, built on
 *    DistanceCache::global() and Scheduler::shared().  What the free
 *    functions and most binaries use.
 *  - TranspileContext(Config): a private context for tests/servers that
 *    need isolated caches or a dedicated scheduler (nasscd builds one
 *    per daemon with the configured cache bounds).
 *
 * Thread safety: every member is safe to call concurrently; the service
 * is created once on first use (of submit/service()).
 */

#include <memory>
#include <mutex>
#include <string>

#include "nassc/service/transpile_service.h"
#include "nassc/transpile/transpile.h"

namespace nassc {

/** Shared transpilation dependencies + both sync and async entry points. */
class TranspileContext
{
  public:
    /** All fields optional; unset ones get process-wide defaults. */
    struct Config
    {
        /** Distance-matrix cache; null = DistanceCache::global(). */
        std::shared_ptr<DistanceCache> distances;
        /** Worker pool; null = Scheduler::shared(). */
        std::shared_ptr<Scheduler> scheduler;
        /** Options for the lazily-created TranspileService.  Its
         *  scheduler/distances fields are overridden by the two members
         *  above so the context stays internally consistent. */
        ServiceOptions service;
    };

    TranspileContext() : TranspileContext(Config{}) {}
    explicit TranspileContext(Config config);

    TranspileContext(const TranspileContext &) = delete;
    TranspileContext &operator=(const TranspileContext &) = delete;

    /** Synchronous full pipeline (see transpile/transpile.h). */
    TranspileResult transpile(const QuantumCircuit &qc,
                              const Backend &backend,
                              const TranspileOptions &opts = {}) const;

    /** Optimization-only baseline (no routing). */
    TranspileResult optimize_only(const QuantumCircuit &qc,
                                  const TranspileOptions &opts = {}) const;

    /** Async submit through the context's TranspileService (created on
     *  first use): dedup, coalescing, and the bounded result cache all
     *  apply, and `policy` sets the request's priority, deadline and
     *  cache TTL.  See service/transpile_service.h. */
    TranspileTicket submit(const QuantumCircuit &qc,
                           std::shared_ptr<const Backend> backend,
                           const TranspileOptions &opts = {},
                           const RequestPolicy &policy = {});

    DistanceCache &distances() const { return *distances_; }

    Scheduler &scheduler() const;

    /** The context's TranspileService, created on first call. */
    TranspileService &service();

    /**
     * Process-wide context over DistanceCache::global() and
     * Scheduler::shared() — the one the free transpile() shims use.
     */
    static TranspileContext &global();

  private:
    std::shared_ptr<DistanceCache> distances_;
    std::shared_ptr<Scheduler> scheduler_; ///< null = Scheduler::shared()
    ServiceOptions service_options_;

    mutable std::mutex service_mu_; ///< guards lazy service creation
    std::unique_ptr<TranspileService> service_;
};

/**
 * Deterministic per-job seed for sweeps that want decorrelated layouts
 * without hand-numbering seeds: a stable mix of a sweep-wide base seed,
 * the job's tag, and the job's own option seed.  A pure function of its
 * arguments, so a job's seed never depends on its submission order.
 */
unsigned derive_job_seed(unsigned base_seed, const std::string &tag,
                         unsigned job_seed);

} // namespace nassc

#endif // NASSC_TRANSPILE_CONTEXT_H
