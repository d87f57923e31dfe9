#ifndef NASSC_ROUTE_ROUTER_H
#define NASSC_ROUTE_ROUTER_H

/**
 * @file
 * The routing engine behind route_circuit()/sabre_initial_layout().
 *
 * A Router binds an immutable (DagCircuit, CouplingMap, DistanceProvider,
 * RoutingOptions) tuple and can run many passes over it: reset() rewinds
 * every piece of mutable state, so sabre_initial_layout() builds the
 * forward and reversed DAGs and Routers once and reuses them across all
 * reverse-traversal iterations instead of reconstructing them per pass.
 *
 * The per-decision loop is allocation-free after warm-up:
 *
 *  - swap_candidates() and the extended-set BFS deduplicate with
 *    epoch-stamped marker arrays instead of std::set, writing into
 *    reused scratch vectors;
 *  - the extended set is cached between consecutive SWAPs and only
 *    rebuilt when the front layer changes (a gate executes);
 *  - scoring is incremental: the front/extended distance sums are
 *    computed once per decision, and each candidate SWAP (p, q) only
 *    re-evaluates the gates with an endpoint on p or q — O(sum of
 *    degrees) per decision instead of O(|cands| * (|F| + |E|));
 *  - every distance is read through a pinned DistanceProvider::row(),
 *    cached per Router.
 *
 * The incremental sums are bit-identical to the naive per-candidate
 * loop for integer-valued (hop) distances; the golden-metrics suite in
 * tests/test_router_equivalence.cc pins equality with the seed
 * implementation for the noise-aware metric as well.
 *
 * This header is internal-but-stable API: bench/micro_benchmarks.cc
 * drives the individual kernels (execute_ready, swap_candidates,
 * extended_set, apply_best_swap) in isolation.
 */

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nassc/ir/dag.h"
#include "nassc/route/layout.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/coupling_map.h"
#include "nassc/topo/distance_provider.h"

namespace nassc {

class OptAwareTracker;
struct SwapReduction;

/** Reusable routing state over one (dag, device, metric, options) tuple. */
class Router
{
  public:
    /**
     * Binds the inputs and validates gate widths (<= 2 qubits except
     * barriers).  The dag, coupling, and dist references must outlive
     * the Router.  Distances are read through the provider's pinned
     * rows (see row()).
     */
    Router(const DagCircuit &dag, const CouplingMap &coupling,
           const DistanceProvider &dist, const RoutingOptions &opts);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** Full pass: reset to `initial`, route, assemble the circuit. */
    RoutingResult run(const Layout &initial);

    /**
     * Layout-search pass: identical routing decisions to run(), but
     * skips assembling the output circuit (the reverse-traversal search
     * only consumes the final layout).  Returns a reference to the
     * internal layout — valid until the next pass — so the search loop
     * stays allocation-free; copy it to keep it.
     */
    const Layout &route_to_layout(const Layout &initial);

    // ---- kernel API (micro-benchmarks, white-box tests) --------------------

    /** Rewind all mutable state to a fresh pass from `initial`. */
    void reset(const Layout &initial);

    /** Execute every executable front gate to a fixpoint. */
    void execute_ready();

    bool front_empty() const { return front_.empty(); }

    /**
     * Deduplicated candidate edges touching the front layer, sorted
     * ascending.  Valid until the next swap_candidates() call.
     */
    const std::vector<std::pair<int, int>> &swap_candidates();

    /**
     * Extended lookahead set (<= opts.extended_size two-qubit gates
     * behind the front).  Cached between consecutive SWAPs; rebuilt
     * only after a front-layer change.
     */
    const std::vector<int> &extended_set();

    /** Drop the extended-set cache (benchmarks measure a cold rebuild). */
    void invalidate_extended_set() { ext_valid_ = false; }

    /** Score all candidates incrementally and apply the best SWAP. */
    void apply_best_swap();

    const RoutingStats &stats() const { return stats_; }

  private:
    void run_loop();
    int emit(Gate g);
    void execute_node(int id);
    void apply_forced_swap();
    void apply_swap(int p, int q, const SwapReduction &red);
    void reset_decay();

    /**
     * Distance row of physical qubit `i`.  The pinned row handle is
     * fetched from the provider on first touch and cached for the
     * Router's lifetime, so repeat reads are one array index — and
     * provider-side eviction cannot invalidate a row this Router still
     * scores through.
     */
    const double *
    row(int i) const
    {
        DistanceRow &r = row_cache_[i];
        if (!r.data)
            r = prov_->row(i);
        return r.data;
    }

    double dist_at(int i, int j) const { return row(i)[j]; }

    /** D[pa'][pb'] after relabeling through a SWAP on (p, q). */
    double
    swapped_dist(int pa, int pb, int p, int q) const
    {
        if (pa == p)
            pa = q;
        else if (pa == q)
            pa = p;
        if (pb == p)
            pb = q;
        else if (pb == q)
            pb = p;
        return dist_at(pa, pb);
    }

    /** Mark physical qubits within opts_.region_radius of the front. */
    void mark_region();

    /**
     * Build the per-entry terms (3*D for front gates, D for extended
     * ones), the base sums and the per-qubit touch lists for one
     * decision.
     */
    void build_score_base();

    /**
     * Accumulate the score adjustments of the entries listed in `ks`
     * for a candidate SWAP on (p, q).  When skip_p is set, entries with
     * an endpoint on p are skipped (they were accumulated from p's own
     * list already).  The sums follow list order.
     */
    void accumulate_delta(const std::vector<int> &ks, bool skip_p, int p,
                          int q, double &dfront, double &dext) const;

    /** Front/extended sum adjustments for a candidate SWAP on (p, q). */
    void candidate_delta(int p, int q, double &dfront, double &dext) const;

    // ---- immutable bindings ------------------------------------------------
    const DagCircuit &dag_;
    const CouplingMap &coupling_;
    const DistanceProvider *prov_;   ///< never null
    const RoutingOptions opts_;
    const int num_phys_;
    int force_limit_ = 50;
    /** Pinned provider rows, fetched lazily (see row()). */
    mutable std::vector<DistanceRow> row_cache_;

    // ---- per-pass state ----------------------------------------------------
    Layout layout_;
    std::unique_ptr<OptAwareTracker> tracker_;
    std::vector<int> remaining_;
    std::vector<int> front_;
    std::vector<Gate> out_;
    std::vector<bool> dead_;
    std::vector<double> decay_;
    std::vector<int> decayed_; ///< qubits bumped since the last decay reset
    RoutingStats stats_;
    std::pair<int, int> last_swap_{-1, -1};
    int swaps_since_progress_ = 0;
    int swaps_since_decay_reset_ = 0;

    // ---- epoch-stamped scratch (valid entries carry the current stamp) ----
    std::uint64_t stamp_ = 0;
    std::vector<std::uint64_t> edge_stamp_; ///< per coupling edge index
    std::vector<std::uint64_t> node_stamp_; ///< per DAG node (BFS seen set)
    std::vector<std::pair<int, int>> cand_;
    std::vector<int> ext_;
    bool ext_valid_ = false;
    std::vector<int> bfs_;          ///< BFS queue storage (head index local)
    std::vector<int> front_snapshot_; ///< execute_ready iteration snapshot
    std::vector<std::uint64_t> phys_stamp_; ///< region marks (== region_mark_)
    std::uint64_t region_mark_ = 0;
    std::vector<int> region_bfs_;   ///< (qubit, depth) interleaved queue

    // ---- incremental-scoring scratch (rebuilt once per decision) ----------
    double front_base_ = 0.0;
    double ext_base_ = 0.0;
    int score_front_count_ = 0;            ///< entries below are front terms
    std::vector<int> score_pa_, score_pb_; ///< front then extended entries
    std::vector<double> score_term_;       ///< 3*D front terms, D ext terms
    std::vector<std::vector<int>> by_phys_; ///< qubit -> indices into score_*
    std::vector<int> touched_phys_;         ///< qubits to clear after scoring

    // ---- flagged-SWAP 1q move buffers --------------------------------------
    std::vector<int> moved_idx_scratch_;
    std::vector<std::pair<int, int>> moved_scratch_; ///< (out idx, new wire)
};

} // namespace nassc

#endif // NASSC_ROUTE_ROUTER_H
