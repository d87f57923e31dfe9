#ifndef NASSC_ROUTE_SABRE_H
#define NASSC_ROUTE_SABRE_H

/**
 * @file
 * SWAP-based bidirectional heuristic routing.
 *
 * route_circuit() implements the SABRE algorithm [Li, Ding & Xie,
 * ASPLOS'19]: a front layer of blocked two-qubit gates, an extended
 * lookahead layer, and a per-swap heuristic cost
 *
 *   H = (1/|F|) (3 * sum_F D[g.i][g.j] - sum_k b_k C_k)
 *     + (W/|E|)      sum_E D[g.i][g.j]                      (paper eq. 2)
 *
 * With all b_k = 0 this is the SABRE baseline; with
 * RoutingAlgorithm::kNassc the C_k terms are supplied by the
 * optimization-aware tracker (route/nassc_router.h) and profitable SWAPs
 * are flagged for orientation-aware decomposition, with single-qubit
 * gates moved through flagged SWAPs (paper Sec. IV).
 *
 * sabre_initial_layout() implements the reverse-traversal initial mapping
 * search shared by SABRE and NASSC (paper Sec. IV-A).
 */

#include "nassc/ir/circuit.h"
#include "nassc/route/layout.h"
#include "nassc/topo/coupling_map.h"
#include "nassc/topo/distance_provider.h"

namespace nassc {

/** Which routing cost model to use. */
enum class RoutingAlgorithm {
    kSabre, ///< distance-only cost (baseline)
    kNassc, ///< optimization-aware cost + SWAP decomposition flags
};

/** Router configuration (defaults follow the paper's Sec. V settings). */
struct RoutingOptions
{
    RoutingAlgorithm algorithm = RoutingAlgorithm::kSabre;
    int extended_size = 20;        ///< |E|, lookahead window
    double extended_weight = 0.5;  ///< W
    bool use_decay = true;         ///< SABRE decay for parallelism
    double decay_delta = 0.001;
    int decay_reset_interval = 5;
    /** b_k switches for the three NASSC optimizations (Sec. IV-F). */
    bool enable_c2q = true;
    bool enable_commute1 = true;
    bool enable_commute2 = true;
    int commute_window = 20; ///< max commute-set search size (Sec. IV-E)
    unsigned seed = 0;       ///< randomizes the initial layout only
    /**
     * Independent random-seed layouts raced by sabre_initial_layout
     * (LayoutSearch); the best-scoring refined layout wins.  Trial 0
     * uses `seed` unchanged, so layout_trials = 1 is bit-identical to
     * the single-seed search.  Like Qiskit's SabreLayout(swap_trials=N).
     */
    int layout_trials = 1;
    /**
     * Worker cap for running the trials on Scheduler::shared(); 0 =
     * whole pool, 1 = serial.  Any value yields bit-identical results —
     * trials are seeded and scored independently of scheduling.
     */
    int layout_threads = 0;
    /**
     * Retain the winning layout trial's full-circuit scoring pass so
     * the caller can skip its own route_circuit() call (see
     * LayoutSearchResult::routed).  Only legal — and only honoured —
     * when `algorithm` is kSabre: the search scores with the SABRE cost
     * model, so a retained pass is bit-identical to the downstream
     * route exactly when the downstream route is SABRE too.  Off means
     * "score but discard": trial outcomes are unchanged, the final
     * route is recomputed — the two paths are bit-identical by
     * construction (pinned in tests/test_layout_trials.cc).
     */
    bool reuse_routing = true;
    /**
     * Region-limited lookahead for large devices: when > 0, the
     * extended set only admits gates whose current physical qubits
     * both lie within this many coupling-graph hops of a front-layer
     * physical qubit.  SWAP candidates are radius-1 by construction
     * (edges touching the front layer), so with this set a routing
     * decision never reads distance rows of qubits far from the front.
     * 0 (the default) disables the limit and is bit-identical to every
     * prior release.
     */
    int region_radius = 0;
};

/** Counters reported by one routing run. */
struct RoutingStats
{
    int num_swaps = 0;
    int flagged_swaps = 0;  ///< SWAPs with orientation flags (NASSC)
    int c2q_hits = 0;       ///< swaps chosen with a C2q reduction
    int commute1_hits = 0;
    int commute2_hits = 0;
    int moved_1q = 0;       ///< 1q gates moved through flagged SWAPs
    int forced_moves = 0;   ///< deadlock-breaking shortest-path swaps
};

/** Output of routing. */
struct RoutingResult
{
    QuantumCircuit circuit; ///< physical circuit; SWAPs still kSwap gates
    std::vector<int> initial_l2p;
    std::vector<int> final_l2p;
    RoutingStats stats;
};

/**
 * Route `logical` (gates must act on <= 2 qubits) onto the device.
 *
 * @param dist    distance provider (hop_distance or
 *                noise_aware_distance), which only computes the rows
 *                the routing decisions visit
 * @param initial initial layout (e.g. from sabre_initial_layout)
 */
RoutingResult route_circuit(const QuantumCircuit &logical,
                            const CouplingMap &coupling,
                            const DistanceProvider &dist,
                            const Layout &initial,
                            const RoutingOptions &opts);

/**
 * SABRE reverse-traversal initial layout: opts.layout_trials seed
 * layouts (random, plus embedding/degree heuristics when racing), each
 * refined by alternating forward/backward routing passes, raced on the
 * shared thread pool; the best refined layout (by scored SWAPs, then
 * depth, then trial index) wins.  Thin wrapper over LayoutSearch
 * (route/layout_search.h) that discards everything but the layout —
 * callers that also want the winner's retained routed pass use
 * search_and_route() instead.  Output is bit-identical for every
 * thread count, and layout_trials = 1 reproduces the historical
 * single-seed search exactly.
 */
Layout sabre_initial_layout(const QuantumCircuit &logical,
                            const CouplingMap &coupling,
                            const DistanceProvider &dist,
                            const RoutingOptions &opts, int iterations = 3);

} // namespace nassc

#endif // NASSC_ROUTE_SABRE_H
