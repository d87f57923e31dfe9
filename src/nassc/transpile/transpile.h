#ifndef NASSC_TRANSPILE_TRANSPILE_H
#define NASSC_TRANSPILE_TRANSPILE_H

/**
 * @file
 * End-to-end transpilation pipelines.
 *
 * transpile() mirrors the paper's Fig. 5 flow:
 *
 *   decompose -> pre-routing optimization (Optimize1qGates,
 *   Collect2qBlocks resynthesis, commutation analysis happens inside the
 *   router) -> SabreLayout -> routing (SABRE or NASSC) -> SWAP
 *   decomposition (flag-aware for NASSC, fixed for SABRE) -> basis
 *   translation -> optimization loop (Optimize1qGates,
 *   CommutativeCancellation, Collect2qBlocks) to fixpoint.  NASSC's C2q
 *   saving is realized by the loop's block consolidation, which runs
 *   after cancellation has removed the CX pairs the SWAP flags line up.
 *
 * Each transpile() or optimize_only() call passes one SynthMemo (see
 * passes/collect_blocks.h) to every local resynthesis it runs: each
 * block consolidation (pre-routing and each loop round), each
 * Optimize1qGates pass and each basis translation.  So a recurring
 * block, 1q run or translated 1q gate is synthesized once per call.
 * The caller owns the memo: a TranspileService leases one from its pool
 * for each request, so what earlier requests synthesized is a hit, and
 * the other overloads keep one on the call's stack.  A memo has one user at a
 * time, so concurrent calls share nothing, and the output is the same
 * whatever the memo holds.
 *
 * The layout step scores every trial by routing the FULL circuit
 * (measures/barriers included, operands mapped through the live
 * layout); on kSabre pipelines the winning trial's scoring pass is the
 * final route and the separate routing step is skipped (retained-trial
 * reuse, see route/layout_search.h).  Reuse is never legal for kNassc:
 * the search scores with the SABRE cost model while the final NASSC
 * route uses the optimization-aware tracker.
 *
 * optimize_only() is the "original circuit optimized by Qiskit" baseline
 * of Tables I-IV: the same pipeline on a fully connected device (no
 * routing), used to compute CNOT_add = CNOT_total - CNOT_baseline.
 */

#include <chrono>
#include <cstdint>

#include "nassc/ir/circuit.h"
#include "nassc/route/sabre.h"
#include "nassc/service/distance_cache.h"
#include "nassc/topo/backends.h"

namespace nassc {

class SynthMemo;

/** Transpiler configuration (paper Sec. V defaults). */
struct TranspileOptions
{
    RoutingAlgorithm router = RoutingAlgorithm::kNassc;
    unsigned seed = 0;
    bool noise_aware = false; ///< HA distance matrix (eq. 3), Sec. VI-D
    /** b_k switches of the three NASSC optimizations (Fig. 9). */
    bool enable_c2q = true;
    bool enable_commute1 = true;
    bool enable_commute2 = true;
    int extended_size = 20;       ///< |E|
    double extended_weight = 0.5; ///< W
    int layout_iterations = 3;    ///< reverse-traversal rounds
    /** Independent layout-search trials raced on the shared pool; the
     *  best refined layout wins (see route/layout_search.h).  1 =
     *  historical single-seed search, bit for bit. */
    int layout_trials = 1;
    /** Worker cap for the layout trials; 0 = whole shared pool.  Any
     *  value produces bit-identical output. */
    int layout_threads = 0;
    int opt_loop_rounds = 4;      ///< post-routing optimization loop cap
    /** Skip the separate routing step when the layout search already
     *  routed the winner (kSabre pipelines; see RoutingOptions).  The
     *  output is bit-identical either way — this switch exists for the
     *  equivalence tests and for forcing the legacy two-pass flow. */
    bool reuse_routing = true;
    /** Ablation switch: honour SWAP orientation flags when expanding
     *  SWAPs (NASSC Sec. IV-E).  Disabling isolates the contribution of
     *  the optimization-aware cost function alone. */
    bool orientation_aware_decomposition = true;
    /** Ablation switch: SABRE decay factor in the router. */
    bool use_decay = true;
    /**
     * Device size above which distance_row_budget_bytes applies.  Every
     * device gets the same lazy per-row provider; at or below the
     * threshold its row cache is unbounded.  A row's values never
     * depend on the budget, so this only trades memory for recompute;
     * set it to a huge value to never bound, or 0 to always bound (the
     * equivalence tests do both).
     */
    int sparse_distance_threshold = 256;
    /**
     * Byte budget for each provider's row cache on devices above
     * sparse_distance_threshold; 0 = unbounded.  Rows are evicted
     * LRU-first past the budget (and recomputed on next touch),
     * bounding resident distance memory per (backend, metric) at the
     * cost of recompute.
     */
    std::size_t distance_row_budget_bytes = 0;
    /**
     * RoutingOptions::region_radius passthrough: when > 0, the router's
     * extended lookahead only admits gates whose physical qubits lie
     * within this many coupling hops of the front layer.  0 (default)
     * is bit-identical to every prior release.
     */
    int region_radius = 0;

    /**
     * FNV-1a fingerprint over the 14 fields that determine the output,
     * in declaration order: router, seed, noise_aware, the enable_*
     * switches, extended_size, extended_weight, layout_iterations,
     * layout_trials, opt_loop_rounds, orientation_aware_decomposition,
     * use_decay and region_radius.  It skips the execution knobs
     * layout_threads, reuse_routing, sparse_distance_threshold and
     * distance_row_budget_bytes, whose output invariance the
     * equivalence tests pin.  Part of the TranspileService cache key
     * (with QuantumCircuit::fingerprint() and Backend::cache_key()).
     * Values are pinned in tests/test_fingerprint.cc, whose two-way
     * field sweep catches a new field left out of either list.
     */
    std::uint64_t fingerprint() const;
};

/** Transpilation output and metrics. */
struct TranspileResult
{
    QuantumCircuit circuit; ///< {rz, sx, x, cx} circuit on device wires
    std::vector<int> initial_l2p;
    std::vector<int> final_l2p;
    RoutingStats routing_stats;
    int cx_total = 0;
    int depth = 0;
    double seconds = 0.0;
    /** True when the winning layout trial's scoring pass was reused as
     *  the final route (kSabre + reuse_routing): the pipeline ran no
     *  separate post-search routing step. */
    bool reused_search_route = false;
    /** Full-circuit forward routing passes this call performed: one
     *  scoring pass per layout trial, plus the post-search route when
     *  it was not reused.  Reuse shows exactly one fewer pass. */
    int full_route_passes = 0;
    /** True when the deadline passed to transpile() (the service's,
     *  from RequestPolicy::deadline_ms) expired mid-search and this is
     *  the best of the trials that DID complete rather than of all
     *  requested trials.  Degraded results are
     *  correct circuits — only the racing was cut short — and are
     *  never admitted to the service result cache. */
    bool degraded = false;
    /** Layout trials that actually completed (== layout_trials unless
     *  degraded). */
    int layout_trials_consumed = 0;
};

/**
 * Full pipeline against a backend, resolving the distance matrix through
 * `cache`.  Concurrent callers sharing a cache (e.g. the requests of one
 * TranspileContext) compute each backend's matrix exactly once.
 */
TranspileResult transpile(const QuantumCircuit &qc, const Backend &backend,
                          const TranspileOptions &opts, DistanceCache &cache);

/**
 * As above, for a caller that already holds `backend_key` ==
 * backend.cache_key(), which is O(device) to hash (the service hashes
 * each backend object once and passes its key down), resynthesizing
 * through the caller's `memo`, which may hold earlier calls' syntheses
 * and gains this call's; the output does not depend on what `memo`
 * holds.  `deadline` is the request's absolute budget (max() = none),
 * handed to the layout search: see TranspileResult::degraded, and
 * TranspileDeadlineExceeded when no layout trial completed in time.
 */
TranspileResult transpile(const QuantumCircuit &qc, const Backend &backend,
                          const TranspileOptions &opts, DistanceCache &cache,
                          const std::string &backend_key, SynthMemo &memo,
                          std::chrono::steady_clock::time_point deadline);

/** Full pipeline through TranspileContext::global() (the process-wide
 *  DistanceCache) — a shim kept for call-site brevity; see
 *  transpile/context.h for the bundled entry point. */
TranspileResult transpile(const QuantumCircuit &qc, const Backend &backend,
                          const TranspileOptions &opts = {});

/**
 * Optimization-only baseline (full connectivity, no routing).  Honours
 * the optimization knobs of `opts` (currently opt_loop_rounds) so
 * ablations of the post-routing loop keep a comparable baseline; the
 * default options reproduce the historical behaviour exactly.  Routing
 * and seed options are irrelevant here and ignored.
 */
TranspileResult optimize_only(const QuantumCircuit &qc,
                              const TranspileOptions &opts = {});

/** The router settings `opts` selects: what transpile() hands to the
 *  layout search and the routing step. */
RoutingOptions routing_options(const TranspileOptions &opts);

} // namespace nassc

#endif // NASSC_TRANSPILE_TRANSPILE_H
