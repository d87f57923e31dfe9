#ifndef NASSC_ROUTE_NASSC_ROUTER_H
#define NASSC_ROUTE_NASSC_ROUTER_H

/**
 * @file
 * Optimization-aware routing state (the core NASSC contribution).
 *
 * The tracker shadows the routed (physical) circuit as it is emitted and
 * maintains, per physical wire:
 *
 *  - the active two-qubit block unitary on each wire pair, giving the
 *    C2q reduction: how many of the 3 CNOTs of a candidate SWAP vanish
 *    when the SWAP is resynthesized into the block (paper Sec. IV-D);
 *
 *  - incremental commute sets of two-qubit gates (single-qubit gates are
 *    skipped, matching the paper), giving the Ccommute1 reduction when a
 *    CNOT on the same pair can cancel a CNOT of the SWAP, and Ccommute2
 *    when two SWAPs sandwich a commuting set (paper Sec. IV-E, Fig. 7-8);
 *
 *  - the trailing single-qubit gates of each wire, which the router moves
 *    through a flagged SWAP so they cannot block the cancellation.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "nassc/ir/gate.h"
#include "nassc/math/complex_mat.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/coupling_map.h"

namespace nassc {

/** What a candidate SWAP would save, and how it must be decomposed. */
struct SwapReduction
{
    double total = 0.0; ///< sum of enabled C_k terms
    int c2q = 0;        ///< CNOTs saved via block resynthesis (0..3)
    bool commute1 = false;
    bool commute2 = false;
    SwapOrient orient = SwapOrient::kDefault;
    /** Output-circuit index of the earlier SWAP to re-flag (Ccommute2). */
    int partner_swap_out_idx = -1;
    /** Output-circuit index of the CNOT claimed by Ccommute1. */
    int used_record_idx = -1;
};

/** Routing-time optimization tracker (one per NASSC Router, rewound by
 *  reset() between routing passes). */
class OptAwareTracker
{
  public:
    /**
     * Tracks every physical qubit of `coupling`, which must outlive the
     * tracker.  Candidate SWAPs are scored only on its edges.
     */
    OptAwareTracker(const CouplingMap &coupling, const RoutingOptions &opts);

    /**
     * Rewind to the freshly constructed state while keeping every
     * buffer's capacity (windows, trailing lists, evaluation cache), so
     * a reused Router re-enters NASSC routing without reallocating.
     * Only the wires touched since the last reset are rewound, and their
     * versions keep counting up, which invalidates every cached
     * evaluation that read them.  An untouched wire is still in its
     * fresh state, so evaluations over untouched wires stay exact.
     */
    void reset();

    /** Record an emitted physical gate occupying out-circuit slot idx. */
    void on_gate(const Gate &g, int out_idx);

    /**
     * Score a candidate SWAP on physical edge (p, q); throws
     * std::invalid_argument when (p, q) is not a coupling edge.
     *
     * Results are memoized in one slot per (edge, orientation), since
     * the orientation flags depend on the argument order.  An
     * evaluation only reads the block, window, and trailing state of
     * wires p and q, so a cached result stays exact until one of those
     * wires is touched (a gate lands on it, its trailing gates are
     * taken, or a consume_record() erases one of its window records).
     * Consecutive SWAP decisions share most of their candidate edges,
     * which makes the hit rate high while the front layer is blocked.
     */
    SwapReduction evaluate_swap(int p, int q) const;

    /**
     * Mark the record of gate `g`, emitted at out-circuit index
     * `out_idx`, as consumed by a flagged SWAP: a cancellation partner
     * can serve only one SWAP, so later candidates must not claim it
     * again.  Only g's own wires can hold the record, so only their
     * windows are searched.  A negative or unknown index is a no-op.
     */
    void consume_record(const Gate &g, int out_idx);

    /**
     * Appends the out-circuit indices of the trailing 1q gates of wire p
     * (the gates a flagged SWAP moves through) to `out`, oldest first,
     * and clears the internal list.  The router marks them dead and
     * re-emits them retargeted; it passes a reused scratch buffer so the
     * hot path stays allocation-free.
     */
    void take_trailing_1q(int p, std::vector<int> &out);

    /**
     * {cnot_cost(u), cnot_cost(SWAP·u)}: the C2q term's two block costs.
     * Within a route most blocks recur, so the pair is memoized under
     * all of u's raw bits in a router-owned SynthMemo, and a hit
     * returns what cnot_cost() would.
     */
    std::pair<int, int> c2q_costs(const Mat4 &u) const;

    /** Heap bytes held: O(qubits + coupling edges), never O(qubits^2);
     *  the C2q cost memo adds at most ~1.3 MiB. */
    std::size_t memory_bytes() const;

  private:
    struct Rec
    {
        Gate gate;
        int out_idx;
    };

    void break_block(int p);
    void fold_trailing_into_window(int p);

    /**
     * Invalidate cached evaluations involving wire p, and list p for
     * the next reset().
     */
    void
    touch_wire(int p)
    {
        ++wire_version_[p];
        if (!dirty_[p]) {
            dirty_[p] = true;
            touched_.push_back(p);
        }
    }

    SwapReduction evaluate_swap_uncached(int p, int q) const;

    const CouplingMap &coupling_;
    const RoutingOptions &opts_;

    // --- two-qubit block state (C2q) ---
    std::vector<int> partner_;      ///< open-block partner wire or -1
    std::vector<Mat4> block_u_;     ///< block unitary, stored at min wire
    std::vector<Mat2> pending_mat_; ///< accumulated 1q prefix per wire

    // --- commute windows (Ccommute1/2) ---
    std::vector<std::vector<Rec>> window_;

    // --- trailing 1q gates per wire (movement through SWAPs) ---
    std::vector<std::vector<Rec>> trailing_;

    // --- wires touched since the last reset (see reset) ---
    std::vector<bool> dirty_;
    std::vector<int> touched_;

    // --- per-edge evaluation cache (see evaluate_swap) ---
    struct CachedEval
    {
        std::uint64_t version_a = 0; ///< wire_version_[p] at compute time
        std::uint64_t version_b = 0; ///< wire_version_[q] at compute time
        SwapReduction red;
    };
    std::vector<std::uint64_t> wire_version_;
    /** Slot 2*e + (p > q) for coupling edge e = edge_index(p, q). */
    mutable std::vector<CachedEval> eval_cache_;

    /** c2q_costs()' answers under kC2qCost keys.  Entries outlive
     *  reset(); the memo clears itself at its key-arena bound (1 MiB,
     *  ~3,700 blocks). */
    mutable SynthMemo c2q_memo_;
};

} // namespace nassc

#endif // NASSC_ROUTE_NASSC_ROUTER_H
