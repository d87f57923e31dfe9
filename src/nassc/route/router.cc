#include "nassc/route/router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "nassc/obs/trace.h"
#include "nassc/route/nassc_router.h"

namespace nassc {

Router::Router(const DagCircuit &dag, const CouplingMap &coupling,
               const DistanceProvider &dist, const RoutingOptions &opts)
    : dag_(dag), coupling_(coupling), prov_(&dist),
      opts_(opts), num_phys_(coupling.num_qubits())
{
    for (int id = 0; id < dag_.num_nodes(); ++id) {
        const Gate &g = dag_.gate(id);
        if (g.num_qubits() > 2 && g.kind != OpKind::kBarrier)
            throw std::invalid_argument(
                "route_circuit: decompose to <= 2q gates first");
    }
    // A NaN or infinite weight poisons every lookahead score, so no
    // candidate compares best and the SWAP choice degenerates.
    if (!std::isfinite(opts_.extended_weight))
        throw std::invalid_argument(
            "route_circuit: extended_weight must be finite");
    force_limit_ = 3 * std::max(coupling_.diameter(), 2) + 8;
    // Candidate dedup marks, one per coupling edge (the historical
    // n*n table was 144 MB at 4k qubits for the same information).
    edge_stamp_.assign(coupling_.edges().size(), 0);
    node_stamp_.assign(dag_.num_nodes(), 0);
    by_phys_.resize(num_phys_);
    remaining_.resize(dag_.num_nodes());
    out_.reserve(dag_.num_nodes() + 64);
    dead_.reserve(dag_.num_nodes() + 64);
    row_cache_.resize(num_phys_);
    decay_.assign(num_phys_, 1.0);
    if (opts_.region_radius > 0)
        phys_stamp_.assign(num_phys_, 0);
}

Router::~Router() = default;

void
Router::reset(const Layout &initial)
{
    layout_ = initial;
    for (int i = 0; i < dag_.num_nodes(); ++i)
        remaining_[i] = dag_.num_distinct_preds(i);
    front_.assign(dag_.initial_front().begin(), dag_.initial_front().end());
    out_.clear();
    dead_.clear();
    reset_decay();
    stats_ = RoutingStats{};
    last_swap_ = {-1, -1};
    swaps_since_progress_ = 0;
    ext_valid_ = false;
    if (opts_.algorithm == RoutingAlgorithm::kNassc) {
        // Reuse the tracker across passes: reset() keeps its window /
        // cache capacities, so repeat runs allocate nothing.
        if (tracker_)
            tracker_->reset();
        else
            tracker_ = std::make_unique<OptAwareTracker>(coupling_, opts_);
    }
}

void
Router::run_loop()
{
    while (true) {
        execute_ready();
        if (front_.empty())
            break;
        if (swaps_since_progress_ >= force_limit_)
            apply_forced_swap();
        else
            apply_best_swap();
    }
}

RoutingResult
Router::run(const Layout &initial)
{
    // Pure trace site (no histogram): unarmed cost is ONE relaxed
    // load — this is the router's hot entry and must stay free when
    // nobody asked for a trace.
    obs::TraceSpan span("route_pass");
    reset(initial);
    RoutingResult res;
    res.initial_l2p = layout_.l2p();
    run_loop();

    QuantumCircuit qc(num_phys_);
    for (std::size_t i = 0; i < out_.size(); ++i)
        if (!dead_[i])
            qc.append(std::move(out_[i]));
    res.circuit = std::move(qc);
    res.final_l2p = layout_.l2p();
    res.stats = stats_;
    return res;
}

const Layout &
Router::route_to_layout(const Layout &initial)
{
    reset(initial);
    run_loop();
    return layout_;
}

// ---- emission --------------------------------------------------------------

int
Router::emit(Gate g)
{
    int idx = static_cast<int>(out_.size());
    if (tracker_)
        tracker_->on_gate(g, idx);
    out_.push_back(std::move(g));
    dead_.push_back(false);
    return idx;
}

void
Router::execute_node(int id)
{
    Gate g = dag_.gate(id);
    for (int &q : g.qubits)
        q = layout_.phys_of(q);
    emit(std::move(g));
    // Decrement each distinct successor once (CSR view: already
    // deduplicated and sorted, no per-gate copy + sort).
    for (int s : dag_.distinct_succs(id))
        if (--remaining_[s] == 0)
            front_.push_back(s);
    // The front layer changed: the cached extended set is stale.
    ext_valid_ = false;
}

void
Router::execute_ready()
{
    bool progressed = true;
    while (progressed) {
        progressed = false;
        // execute_node() appends newly unblocked nodes to front_, so
        // iterate over a snapshot and rebuild front_ from scratch.
        front_snapshot_.swap(front_);
        front_.clear();
        for (int id : front_snapshot_) {
            const Gate &g = dag_.gate(id);
            bool two_q = g.num_qubits() == 2 && is_unitary_op(g.kind);
            bool ok = !two_q ||
                      coupling_.connected(layout_.phys_of(g.qubits[0]),
                                          layout_.phys_of(g.qubits[1]));
            if (ok) {
                execute_node(id);
                progressed = true;
                if (two_q) {
                    // A routed 2q gate is real progress; undoing the
                    // last swap afterwards is legitimate again.
                    swaps_since_progress_ = 0;
                    last_swap_ = {-1, -1};
                    reset_decay();
                }
            } else {
                front_.push_back(id);
            }
        }
        front_snapshot_.clear();
    }
}

// ---- scoring ---------------------------------------------------------------

const std::vector<std::pair<int, int>> &
Router::swap_candidates()
{
    ++stamp_;
    cand_.clear();
    for (int id : front_) {
        const Gate &g = dag_.gate(id);
        for (int lq : g.qubits) {
            int p = layout_.phys_of(lq);
            for (int nbr : coupling_.neighbors(p)) {
                // Dedup mark lives at the edge's index in the sorted
                // edge list (always present: nbr came from neighbors()).
                std::uint64_t &st = edge_stamp_[coupling_.edge_index(p, nbr)];
                if (st != stamp_) {
                    st = stamp_;
                    cand_.emplace_back(std::min(p, nbr), std::max(p, nbr));
                }
            }
        }
    }
    // Ascending edge order (what the std::set-based scan produced);
    // in-place sort of a small reused vector, no allocation.
    std::sort(cand_.begin(), cand_.end());
    return cand_;
}

void
Router::mark_region()
{
    // BFS over the coupling graph from every front-layer physical
    // qubit, to depth opts_.region_radius.  Marked qubits carry
    // region_mark_ in phys_stamp_; the queue interleaves (qubit,
    // depth) pairs in a reused vector.
    region_mark_ = ++stamp_;
    region_bfs_.clear();
    for (int id : front_) {
        const Gate &g = dag_.gate(id);
        for (int lq : g.qubits) {
            int p = layout_.phys_of(lq);
            if (phys_stamp_[p] != region_mark_) {
                phys_stamp_[p] = region_mark_;
                region_bfs_.push_back(p);
                region_bfs_.push_back(0);
            }
        }
    }
    std::size_t head = 0;
    while (head < region_bfs_.size()) {
        int p = region_bfs_[head];
        int depth = region_bfs_[head + 1];
        head += 2;
        if (depth >= opts_.region_radius)
            continue;
        for (int nbr : coupling_.neighbors(p)) {
            if (phys_stamp_[nbr] != region_mark_) {
                phys_stamp_[nbr] = region_mark_;
                region_bfs_.push_back(nbr);
                region_bfs_.push_back(depth + 1);
            }
        }
    }
}

const std::vector<int> &
Router::extended_set()
{
    if (ext_valid_)
        return ext_;
    const bool limited = opts_.region_radius > 0;
    if (limited)
        mark_region();
    // BFS over DAG successors of the front, collecting 2q gates.  The
    // seen set is an epoch-stamped array and the queue a reused vector
    // with a moving head.  With a region limit, a gate only joins the
    // extended set when both of its current physical qubits lie inside
    // the marked radius — lookahead never reads distance rows of
    // far-away qubits — but the DAG walk itself is unrestricted so the
    // window still fills from deeper gates.
    ++stamp_;
    ext_.clear();
    bfs_.clear();
    for (int id : front_) {
        bfs_.push_back(id);
        node_stamp_[id] = stamp_;
    }
    std::size_t head = 0;
    while (head < bfs_.size() &&
           static_cast<int>(ext_.size()) < opts_.extended_size) {
        int id = bfs_[head++];
        for (int s : dag_.succs(id)) {
            if (s < 0 || node_stamp_[s] == stamp_)
                continue;
            node_stamp_[s] = stamp_;
            const Gate &g = dag_.gate(s);
            if (g.num_qubits() == 2 && is_unitary_op(g.kind)) {
                bool in_region =
                    !limited ||
                    (phys_stamp_[layout_.phys_of(g.qubits[0])] ==
                         region_mark_ &&
                     phys_stamp_[layout_.phys_of(g.qubits[1])] ==
                         region_mark_);
                if (in_region) {
                    ext_.push_back(s);
                    if (static_cast<int>(ext_.size()) >=
                        opts_.extended_size)
                        break;
                }
            }
            bfs_.push_back(s);
        }
    }
    ext_valid_ = true;
    return ext_;
}

void
Router::build_score_base()
{
    for (int p : touched_phys_)
        by_phys_[p].clear();
    touched_phys_.clear();
    score_pa_.clear();
    score_pb_.clear();
    score_term_.clear();

    // One entry per front/extended gate: its physical operands, its
    // weighted distance term, and its slot in both qubits' touch lists.
    // Each base sum accumulates its terms in index order.
    auto add_entry = [this](int id, double coeff, double &base) {
        const Gate &g = dag_.gate(id);
        const int pa = layout_.phys_of(g.qubits[0]);
        const int pb = layout_.phys_of(g.qubits[1]);
        const int k = static_cast<int>(score_pa_.size());
        const double term = coeff * dist_at(pa, pb);
        score_pa_.push_back(pa);
        score_pb_.push_back(pb);
        score_term_.push_back(term);
        base += term;
        if (by_phys_[pa].empty())
            touched_phys_.push_back(pa);
        by_phys_[pa].push_back(k);
        if (pb != pa) {
            if (by_phys_[pb].empty())
                touched_phys_.push_back(pb);
            by_phys_[pb].push_back(k);
        }
    };

    front_base_ = 0.0;
    for (int id : front_)
        add_entry(id, 3.0, front_base_);
    score_front_count_ = static_cast<int>(score_pa_.size());
    ext_base_ = 0.0;
    for (int id : ext_)
        add_entry(id, 1.0, ext_base_);
}

void
Router::accumulate_delta(const std::vector<int> &ks, bool skip_p, int p,
                         int q, double &dfront, double &dext) const
{
    for (int k : ks) {
        if (skip_p && (score_pa_[k] == p || score_pb_[k] == p))
            continue;
        double nd = swapped_dist(score_pa_[k], score_pb_[k], p, q);
        if (k < score_front_count_)
            dfront += 3.0 * nd - score_term_[k];
        else
            dext += nd - score_term_[k];
    }
}

void
Router::candidate_delta(int p, int q, double &dfront, double &dext) const
{
    dfront = 0.0;
    dext = 0.0;
    accumulate_delta(by_phys_[p], /*skip_p=*/false, p, q, dfront, dext);
    // Gates also touching p were already adjusted above.
    accumulate_delta(by_phys_[q], /*skip_p=*/true, p, q, dfront, dext);
}

void
Router::apply_best_swap()
{
    const auto &cands = swap_candidates();
    if (cands.empty())
        throw std::logic_error(
            "apply_best_swap: blocked front layer has no swap candidates "
            "(all blocked qubits are isolated in the coupling map)");
    const auto &ext = extended_set();
    build_score_base();

    const double nf = static_cast<double>(front_.size());
    const double ne = static_cast<double>(ext.size());

    double best_score = std::numeric_limits<double>::infinity();
    std::pair<int, int> best_edge{-1, -1};
    SwapReduction best_red;

    for (auto [p, q] : cands) {
        // Never immediately undo the previous swap: with reduction
        // terms active it can look locally free and livelock.
        if (cands.size() > 1 && p == last_swap_.first &&
            q == last_swap_.second)
            continue;
        // Incremental scoring: only the gates with an endpoint on p or
        // q move; everything else keeps its base contribution.
        double dfront, dext;
        candidate_delta(p, q, dfront, dext);
        SwapReduction red;
        if (tracker_) {
            // Branch-and-bound prune: red.total is capped at the SWAP's
            // own 3 CNOTs, so a lower bound on h assumes the maximum
            // reduction.  If even that cannot beat the current best,
            // the (expensive) tracker evaluation cannot change the
            // decision and is skipped.  Exact: the bound uses the same
            // expression shape as h, and multiplying both sides by the
            // positive decay factor preserves the order.
            double h_bound = (front_base_ + dfront - 3.0) / nf;
            if (!ext.empty())
                h_bound +=
                    opts_.extended_weight * (ext_base_ + dext) / ne;
            if (opts_.use_decay)
                h_bound *= std::max(decay_[p], decay_[q]);
            if (h_bound >= best_score - 1e-12)
                continue;
            red = tracker_->evaluate_swap(p, q);
        }
        double h = (front_base_ + dfront - red.total) / nf;
        if (!ext.empty())
            h += opts_.extended_weight * (ext_base_ + dext) / ne;
        if (opts_.use_decay)
            h *= std::max(decay_[p], decay_[q]);

        if (h < best_score - 1e-12) {
            best_score = h;
            best_edge = {p, q};
            best_red = red;
        }
    }
    // No candidate scored finite: a weight this large overflows the
    // lookahead term to +inf for every SWAP.
    if (best_edge.first < 0)
        throw std::invalid_argument(
            "route_circuit: extended_weight overflows every SWAP score; "
            "use a smaller weight");

    apply_swap(best_edge.first, best_edge.second, best_red);
}

void
Router::apply_forced_swap()
{
    // Deadlock breaker: move the first blocked gate one hop along a
    // cheapest path (always makes progress eventually).
    const Gate &g = dag_.gate(front_.front());
    if (g.num_qubits() != 2)
        throw std::logic_error(
            "apply_forced_swap: blocked front gate is not two-qubit");
    int pa = layout_.phys_of(g.qubits[0]);
    int pb = layout_.phys_of(g.qubits[1]);
    int best_nbr = -1;
    double best = std::numeric_limits<double>::infinity();
    // One row fetch instead of one per neighbor: the cost is
    // D(pb, nbr).  Hop distances are exactly symmetric, noise
    // distances only up to rounding (each Dijkstra row sums its paths
    // from its own source); a row never depends on the provider's byte
    // budget, so neither does the choice.
    const double *rb = row(pb);
    for (int nbr : coupling_.neighbors(pa)) {
        if (rb[nbr] < best) {
            best = rb[nbr];
            best_nbr = nbr;
        }
    }
    if (best_nbr < 0)
        throw std::logic_error(
            "apply_forced_swap: physical qubit " + std::to_string(pa) +
            " has no neighbors (isolated qubit in the coupling map)");
    ++stats_.forced_moves;
    apply_swap(pa, best_nbr, SwapReduction{});
}

void
Router::apply_swap(int p, int q, const SwapReduction &red)
{
    bool flagged = red.commute1 || red.commute2;

    if (tracker_ && flagged) {
        // Move the trailing 1q gates of both wires through the SWAP:
        // U(p) SWAP(p,q) == SWAP(p,q) U(q).
        moved_scratch_.clear(); // (out-index, new wire)
        for (int w : {p, q}) {
            moved_idx_scratch_.clear();
            tracker_->take_trailing_1q(w, moved_idx_scratch_);
            for (int idx : moved_idx_scratch_) {
                moved_scratch_.emplace_back(idx, w == p ? q : p);
                dead_[idx] = true;
            }
        }
        Gate sw = Gate::two_q(OpKind::kSwap, p, q);
        sw.swap_orient = red.orient;
        emit(std::move(sw));
        for (auto [idx, wire] : moved_scratch_) {
            Gate ng = out_[idx];
            ng.qubits[0] = wire;
            emit(std::move(ng));
            ++stats_.moved_1q;
        }
        if (red.partner_swap_out_idx >= 0) {
            Gate &partner = out_[red.partner_swap_out_idx];
            partner.swap_orient = red.orient;
            tracker_->consume_record(partner, red.partner_swap_out_idx);
        }
        if (red.used_record_idx >= 0)
            tracker_->consume_record(out_[red.used_record_idx],
                                     red.used_record_idx);
        ++stats_.flagged_swaps;
    } else {
        // Pure-C2q (or unflagged) swaps keep the default
        // decomposition: after SWAP expansion, the optimization loop's
        // block consolidation absorbs their CNOTs into the adjacent
        // block regardless of orientation.
        emit(Gate::two_q(OpKind::kSwap, p, q));
    }

    if (red.c2q > 0)
        ++stats_.c2q_hits;
    if (red.commute1)
        ++stats_.commute1_hits;
    if (red.commute2)
        ++stats_.commute2_hits;

    layout_.swap_physical(p, q);
    last_swap_ = {std::min(p, q), std::max(p, q)};
    ++stats_.num_swaps;
    ++swaps_since_progress_;

    if (opts_.use_decay) {
        if (++swaps_since_decay_reset_ >= opts_.decay_reset_interval) {
            reset_decay();
        } else {
            decay_[p] += opts_.decay_delta;
            decay_[q] += opts_.decay_delta;
            decayed_.push_back(p);
            decayed_.push_back(q);
        }
    }
}

void
Router::reset_decay()
{
    // Only the listed qubits can be away from 1.0.  The list holds at
    // most two entries per SWAP since the last reset, so a reset costs
    // O(decay_reset_interval), not O(device).
    for (int p : decayed_)
        decay_[p] = 1.0;
    decayed_.clear();
    swaps_since_decay_reset_ = 0;
}

} // namespace nassc
