#ifndef NASSC_ROUTE_LAYOUT_SEARCH_H
#define NASSC_ROUTE_LAYOUT_SEARCH_H

/**
 * @file
 * Parallel multi-trial initial-layout search with routed-pass retention.
 *
 * LayoutSearch generalizes the SABRE reverse-traversal mapping search
 * (paper Sec. IV-A) from one random seed layout to opts.layout_trials
 * independent ones, raced across Scheduler workers and scored so that
 * the winner — and therefore every downstream routing decision — is
 * bit-identical for every thread count:
 *
 *  - Trial 0's seed layout is drawn from opts.seed unchanged (making
 *    layout_trials = 1 bit-identical to the historical single-seed
 *    search).  When racing more than one trial, trial 1 is seeded from
 *    the deepest find_partial_embedding() assignment (completed
 *    greedily) and trial 2 from a degree-matched heuristic; every other
 *    trial draws a random layout from an FNV-1a mix of (opts.seed, t) —
 *    the same construction as derive_job_seed().
 *  - Each trial refines its seed layout by opts-configured forward /
 *    reverse routing passes over the circuit WITHOUT its non-unitary
 *    ops (bit-compatible with the historical search), then scores the
 *    refined layout with one forward routing pass over the FULL circuit
 *    — measures and barriers routed by mapping their operands through
 *    the live layout, exactly as route_circuit() would.  The scoring
 *    pass runs whenever something consumes it — a race to decide, or
 *    retention to feed; the single-trial pure-layout path skips it and
 *    keeps the historical cost (swaps/depth stay -1 there).
 *  - The best trial is the lexicographic minimum of (scored SWAP count,
 *    scored depth, trial index) — no wall-clock, no scheduling order.
 *    Each finishing trial compares itself against the winner so far
 *    (keep-min), in every mode.
 *
 * Routed-pass retention: when opts.reuse_routing is set and the
 * downstream pipeline is plain SABRE (opts.algorithm == kSabre), the
 * scoring pass routes with exactly the options route_circuit() would
 * use, so the winner's RoutingResult is retained and returned in
 * LayoutSearchResult::routed — transpile() skips its separate routing
 * step entirely and multi-trial transpiles become strictly cheaper than
 * scoring-then-rerouting.  Retention is never legal for kNassc
 * pipelines: the search scores with the SABRE cost model (Sec. IV-A)
 * while the final NASSC route uses the optimization-aware tracker.
 *
 * Fan-out: run() drains one atomic trial counter from `cap` slots:
 * the calling thread is slot 0, and cap - 1 helper tasks submitted to
 * Scheduler::shared() are slots 1 to cap - 1.  When its own drain ends, the
 * caller cancels every helper no worker has claimed yet, waits for the
 * claimed ones, and rethrows the exception of the lowest-index trial
 * that threw.  cap is opts.layout_threads (0 = the whole shared pool
 * plus the caller), never more than the trial count.  No helper is
 * submitted, and the shared pool is not even constructed, for a single
 * trial, for layout_threads == 1, or when the caller is itself a
 * scheduler task — every served request, sweep job and CallerSlot
 * holder — so one saturated level of parallelism never becomes two.
 * A helper drains trials until the race ends, holding its worker the
 * whole time; only top-level in-process callers ever race on the pool.
 *
 * Worker-slot reuse: the forward and reverse DAGs are built once and
 * shared read-only; each slot lazily builds one set of Routers and
 * reuses them across all trials it drains (and across run() calls), so
 * the per-trial cost is just the routing passes themselves.  One
 * thread drains a slot per run(), so the table is never contended.
 *
 * Deadlines: run() takes the request's absolute deadline (max() = none)
 * and each trial checks it at its start, on whichever worker runs it.
 * An expired deadline skips the trial; the winner is the best of the
 * trials that completed, and run() throws TranspileDeadlineExceeded
 * when none did.  A deadline never preempts a running trial.
 */

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "nassc/ir/circuit.h"
#include "nassc/ir/dag.h"
#include "nassc/route/layout.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/coupling_map.h"
#include "nassc/topo/distance_provider.h"

namespace nassc {

class Router;

/**
 * Deterministic per-trial seed: trial 0 is `base_seed` itself (exact
 * single-trial compatibility), trial t > 0 an FNV-1a mix of the pair.
 * Pure function of its arguments — never of scheduling order.
 */
unsigned derive_trial_seed(unsigned base_seed, int trial);

/** How a trial's seed layout was constructed. */
enum class TrialSeedKind {
    kRandom,    ///< Layout::random from the trial's derived seed
    kEmbedding, ///< find_partial_embedding, completed greedily
    kDegree,    ///< interaction degree matched to coupling degree
};

/** Outcome of one layout trial.  swaps/depth come from the trial's
 *  full-circuit scoring pass; they stay -1 (unscored) only on the
 *  single-trial pure-layout path (no race to decide, no retention to
 *  feed), which therefore keeps the historical single-pass cost. */
struct LayoutTrial
{
    Layout layout;     ///< refined layout after the reverse traversal
    unsigned seed = 0; ///< effective RNG seed of this trial
    int trial = 0;     ///< trial index
    TrialSeedKind kind = TrialSeedKind::kRandom;
    int swaps = -1;    ///< full-circuit scoring pass SWAP count
    int depth = -1;    ///< full-circuit scoring pass routed depth
    /** False when the trial was skipped because run()'s deadline had
     *  passed at its start — the trial holds no layout and never
     *  enters the arg-min. */
    bool consumed = false;
};

/** Everything LayoutSearch::run() learned. */
struct LayoutSearchResult
{
    Layout initial; ///< the winning refined layout
    /**
     * The winning trial's full-circuit scoring pass, retained when
     * reuse is legal (opts.reuse_routing and opts.algorithm == kSabre).
     * Bit-identical to route_circuit(full, coupling, dist, initial,
     * opts) — callers holding it skip that call outright.
     */
    std::optional<RoutingResult> routed;
    std::vector<LayoutTrial> trials; ///< all outcomes, indexed by trial
    int best_trial = -1;             ///< index of the winner in trials
    /** Full-circuit scoring passes the search performed (== consumed
     *  trials when racing or retaining, 0 on the pure-layout
     *  single-trial path). */
    int scoring_passes = 0;
    /** Trials that actually ran to completion; < trials.size() only
     *  when a deadline cut the race short, and the winner is then the
     *  best of the COMPLETED trials.  run() throws
     *  TranspileDeadlineExceeded instead when no trial completed. */
    int trials_consumed = 0;
};

/** Multi-trial reverse-traversal layout engine. */
class LayoutSearch
{
  public:
    /**
     * Binds the inputs; `coupling` and `dist` must outlive the search
     * (`logical` is copied).  Gate widths are validated by the Routers.
     * Trials score through `dist` rows; the provider only computes the
     * rows the trials visit.
     */
    LayoutSearch(const QuantumCircuit &logical, const CouplingMap &coupling,
                 const DistanceProvider &dist, const RoutingOptions &opts,
                 int iterations = 3);
    ~LayoutSearch();

    LayoutSearch(const LayoutSearch &) = delete;
    LayoutSearch &operator=(const LayoutSearch &) = delete;

    /**
     * Run opts.layout_trials trials on up to opts.layout_threads
     * threads (see "Fan-out" in the file comment), skipping every
     * trial that starts at or after `deadline` (see "Deadlines").
     * Without a deadline the result is bit-identical for every thread
     * count and schedule, and every trial carries a scored
     * (swaps, depth) pair.
     */
    LayoutSearchResult
    run(std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max());

  private:
    struct WorkerCtx; ///< per-slot Router set

    WorkerCtx &ctx(int worker);
    Router &score_router(WorkerCtx &c);
    void run_trial(int trial, int worker);
    Layout seed_layout(int trial, unsigned seed, TrialSeedKind &kind) const;
    Layout embedding_seed_layout() const;
    Layout degree_seed_layout() const;

    const CouplingMap &coupling_;
    const DistanceProvider *dist_; ///< never null
    RoutingOptions opts_; ///< routing options with algorithm forced to SABRE
    const bool retain_;   ///< keep the winner's scoring pass for reuse
    const int trials_requested_;
    const int iterations_;
    const int num_logical_;
    /** run()'s deadline; read by every trial. */
    std::chrono::steady_clock::time_point deadline_ =
        std::chrono::steady_clock::time_point::max();

    QuantumCircuit fwd_; ///< logical circuit without non-unitary ops
    QuantumCircuit rev_;
    DagCircuit fwd_dag_;
    DagCircuit rev_dag_;
    /** Full-circuit DAG for scoring; empty when fwd_ already is full. */
    std::optional<DagCircuit> full_dag_;

    std::vector<std::unique_ptr<WorkerCtx>> workers_; ///< one per slot
    std::vector<LayoutTrial> trials_;
    /** Keep-min winner (see run_trial), and in retain mode its routed
     *  pass: only one routed circuit stays alive at a time. */
    std::mutex best_mu_;
    int best_trial_ = -1;
    RoutingResult retained_;
};

/**
 * One-shot entry point: run the search and hand back the full result,
 * including the retained routed pass when reuse is legal.  transpile()
 * drives this; sabre_initial_layout() remains the layout-only wrapper.
 */
LayoutSearchResult
search_and_route(const QuantumCircuit &logical, const CouplingMap &coupling,
                 const DistanceProvider &dist, const RoutingOptions &opts,
                 int iterations = 3,
                 std::chrono::steady_clock::time_point deadline =
                     std::chrono::steady_clock::time_point::max());

} // namespace nassc

#endif // NASSC_ROUTE_LAYOUT_SEARCH_H
