#include "nassc/route/nassc_router.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nassc/ir/matrices.h"
#include "nassc/math/weyl.h"
#include "nassc/passes/commutation.h"
#include "nassc/synth/kak2q.h"

namespace nassc {

namespace {

/** Block unitary convention: bit 0 = min(p, partner), bit 1 = max. */
Mat4
lift_1q(const Mat2 &m, bool on_min)
{
    return on_min ? tensor2(m, Mat2::identity())
                  : tensor2(Mat2::identity(), m);
}

} // namespace

OptAwareTracker::OptAwareTracker(const CouplingMap &coupling,
                                 const RoutingOptions &opts)
    : coupling_(coupling), opts_(opts),
      partner_(coupling.num_qubits(), -1),
      block_u_(coupling.num_qubits(), Mat4::identity()),
      pending_mat_(coupling.num_qubits(), Mat2::identity()),
      window_(coupling.num_qubits()), trailing_(coupling.num_qubits()),
      dirty_(coupling.num_qubits(), false),
      // Versions start at 1 so default-constructed (version 0) cache
      // entries can never be mistaken for valid ones.
      wire_version_(coupling.num_qubits(), 1),
      eval_cache_(2 * coupling.edges().size())
{
}

void
OptAwareTracker::reset()
{
    // Every state change goes through touch_wire() on the changed wire,
    // except break_block() resetting the old partner's link and block,
    // and that partner was touched when the block opened.  So the
    // listed wires are the only ones away from their fresh state.
    for (int p : touched_) {
        partner_[p] = -1;
        block_u_[p] = Mat4::identity();
        pending_mat_[p] = Mat2::identity();
        window_[p].clear();
        trailing_[p].clear();
        // The version bump invalidates every cached evaluation that
        // read this wire.
        ++wire_version_[p];
        dirty_[p] = false;
    }
    touched_.clear();
}

void
OptAwareTracker::break_block(int p)
{
    int q = partner_[p];
    if (q >= 0) {
        partner_[p] = -1;
        partner_[q] = -1;
        block_u_[std::min(p, q)] = Mat4::identity();
    }
    pending_mat_[p] = Mat2::identity();
}

void
OptAwareTracker::fold_trailing_into_window(int p)
{
    // Interior 1q gates either commute with every window member (then the
    // window survives) or invalidate the cancellation chain.  SWAP
    // records are transparent: gates pass through a SWAP by relabeling,
    // which the orientation-aware decomposition and the post-routing
    // passes exploit (paper Sec. IV-E).
    for (const Rec &r : trailing_[p]) {
        bool ok = true;
        for (const Rec &w : window_[p]) {
            if (w.gate.kind == OpKind::kSwap)
                continue;
            if (!gates_commute(r.gate, w.gate)) {
                ok = false;
                break;
            }
        }
        if (!ok) {
            window_[p].clear();
            break;
        }
    }
    trailing_[p].clear();
}

void
OptAwareTracker::on_gate(const Gate &g, int out_idx)
{
    // Every state change below is confined to the gate's own wires (a
    // broken block resets the old partner's partner_ link, but that can
    // only flip an evaluation on an edge that includes this wire too,
    // which the bump already covers).
    for (int q : g.qubits)
        touch_wire(q);

    if (g.kind == OpKind::kBarrier || g.kind == OpKind::kMeasure) {
        for (int q : g.qubits) {
            break_block(q);
            window_[q].clear();
            trailing_[q].clear();
        }
        return;
    }
    if (g.num_qubits() == 1) {
        int p = g.qubits[0];
        trailing_[p].push_back({g, out_idx});
        if (partner_[p] >= 0) {
            int mn = std::min(p, partner_[p]);
            Mat4 &u = block_u_[mn];
            u = mul(lift_1q(gate_matrix1(g), p == mn), u);
        } else {
            pending_mat_[p] = mul(gate_matrix1(g), pending_mat_[p]);
        }
        return;
    }

    // Two-qubit gate.
    int p = g.qubits[0];
    int q = g.qubits[1];
    int mn = std::min(p, q), mx = std::max(p, q);

    // --- block tracking ---
    if (partner_[p] == q) {
        accumulate_2q_gate(block_u_[mn], g, mn, mx);
    } else {
        break_block(p);
        break_block(q);
        Mat4 u = tensor2(pending_mat_[mn], pending_mat_[mx]);
        pending_mat_[p] = Mat2::identity();
        pending_mat_[q] = Mat2::identity();
        accumulate_2q_gate(u, g, mn, mx);
        block_u_[mn] = u;
        partner_[p] = q;
        partner_[q] = p;
    }

    // --- commute windows ---
    fold_trailing_into_window(p);
    fold_trailing_into_window(q);
    for (int w : {p, q}) {
        bool fits = true;
        for (const Rec &r : window_[w]) {
            if (r.gate.kind == OpKind::kSwap)
                continue; // transparent marker, see above
            if (!gates_commute(r.gate, g)) {
                fits = false;
                break;
            }
        }
        if (!fits)
            window_[w].clear();
        window_[w].push_back({g, out_idx});
        if (static_cast<int>(window_[w].size()) > 2 * opts_.commute_window)
            window_[w].erase(window_[w].begin());
    }
}

void
OptAwareTracker::consume_record(const Gate &g, int out_idx)
{
    if (out_idx < 0)
        return;
    // on_gate() files a record only in the windows of its gate's wires.
    for (int w : g.qubits) {
        auto &win = window_[w];
        for (auto it = win.begin(); it != win.end();) {
            if (it->out_idx == out_idx) {
                it = win.erase(it);
                touch_wire(w);
            } else {
                ++it;
            }
        }
    }
}

void
OptAwareTracker::take_trailing_1q(int p, std::vector<int> &out)
{
    touch_wire(p);
    for (const Rec &r : trailing_[p])
        out.push_back(r.out_idx);
    trailing_[p].clear();
    // The moved gates leave this wire: their contribution to the open
    // block / pending matrix must be undone.  The router re-emits them
    // after the SWAP, so the simplest sound model is to reset the block
    // state of this wire (the SWAP itself restarts the block anyway).
    break_block(p);
}

std::size_t
OptAwareTracker::memory_bytes() const
{
    std::size_t bytes = partner_.capacity() * sizeof(int) +
                        block_u_.capacity() * sizeof(Mat4) +
                        pending_mat_.capacity() * sizeof(Mat2) +
                        (window_.capacity() + trailing_.capacity()) *
                            sizeof(std::vector<Rec>) +
                        dirty_.capacity() / 8 +
                        touched_.capacity() * sizeof(int) +
                        wire_version_.capacity() * sizeof(std::uint64_t) +
                        eval_cache_.capacity() * sizeof(CachedEval) +
                        c2q_memo_.memory_bytes();
    for (const auto &recs : {&window_, &trailing_})
        for (const std::vector<Rec> &r : *recs)
            bytes += r.capacity() * sizeof(Rec);
    return bytes;
}

SwapReduction
OptAwareTracker::evaluate_swap(int p, int q) const
{
    const int edge = coupling_.edge_index(p, q);
    if (edge < 0)
        throw std::invalid_argument("evaluate_swap: (" + std::to_string(p) +
                                    ", " + std::to_string(q) +
                                    ") is not a coupling edge");
    CachedEval &slot =
        eval_cache_[2 * static_cast<std::size_t>(edge) + (p > q ? 1 : 0)];
    if (slot.version_a == wire_version_[p] &&
        slot.version_b == wire_version_[q])
        return slot.red;
    slot.red = evaluate_swap_uncached(p, q);
    slot.version_a = wire_version_[p];
    slot.version_b = wire_version_[q];
    return slot.red;
}

std::pair<int, int>
OptAwareTracker::c2q_costs(const Mat4 &u) const
{
    std::uint64_t key[33] = {SynthMemo::kC2qCost};
    static_assert(sizeof(key) - sizeof(key[0]) == sizeof(u.v));
    std::memcpy(key + 1, u.v.data(), sizeof(u.v));
    const std::uint64_t hash = SynthMemo::hash(key, 33);
    if (const std::uint64_t *c = c2q_memo_.find_words(key, 33, hash))
        return {static_cast<int>(c[0]), static_cast<int>(c[1])};
    const int k_old = cnot_cost(u);
    const int m_new = cnot_cost(mul(swap_mat(), u));
    const std::uint64_t costs[2] = {static_cast<std::uint64_t>(k_old),
                                    static_cast<std::uint64_t>(m_new)};
    c2q_memo_.insert_words(key, 33, hash, costs, 2);
    return {k_old, m_new};
}

SwapReduction
OptAwareTracker::evaluate_swap_uncached(int p, int q) const
{
    SwapReduction red;

    // --- C2q: SWAP joins the active block on (p, q) ------------------------
    if (opts_.enable_c2q && partner_[p] == q) {
        int mn = std::min(p, q);
        const auto [k_old, m_new] = c2q_costs(block_u_[mn]);
        int saved = 3 + k_old - m_new;
        saved = std::clamp(saved, 0, 3);
        if (saved > 0) {
            red.c2q = saved;
            red.total += saved;
        }
    }

    // --- Ccommute1: cancellable CNOT on the same pair ----------------------
    // Search the current commute windows of both wires (newest first,
    // bounded by the paper's 20-gate search window) for a shared CX record
    // on exactly {p, q}.
    auto find_common = [&](OpKind kind, int &out_idx, Gate &found) {
        int checked = 0;
        for (auto it = window_[p].rbegin();
             it != window_[p].rend() && checked < opts_.commute_window;
             ++it, ++checked) {
            if (it->gate.kind != kind)
                continue;
            const Gate &g = it->gate;
            bool on_pair = (g.qubits[0] == p && g.qubits[1] == q) ||
                           (g.qubits[0] == q && g.qubits[1] == p);
            if (!on_pair)
                continue;
            // Must also be live in q's window.
            int checked_q = 0;
            for (auto jt = window_[q].rbegin();
                 jt != window_[q].rend() &&
                 checked_q < opts_.commute_window;
                 ++jt, ++checked_q) {
                if (jt->out_idx == it->out_idx) {
                    out_idx = it->out_idx;
                    found = g;
                    return true;
                }
            }
        }
        return false;
    };

    if (opts_.enable_commute1) {
        int idx = -1;
        Gate cxg;
        if (find_common(OpKind::kCX, idx, cxg)) {
            // An intervening SWAP record relabels the wires, which voids
            // a plain CX-CX cancellation; be conservative there.
            bool swap_after = false;
            for (int w : {p, q}) {
                for (const Rec &r : window_[w])
                    if (r.gate.kind == OpKind::kSwap && r.out_idx > idx)
                        swap_after = true;
            }
            if (!swap_after) {
                // Trailing 1q gates will be moved through the SWAP, so
                // they cannot block the cancellation.
                red.commute1 = true;
                red.total += 2.0;
                red.orient = (cxg.qubits[0] == p) ? SwapOrient::kFirst
                                                  : SwapOrient::kSecond;
                red.used_record_idx = idx;
            }
        }
    }

    // --- Ccommute2: commuting set sandwiched by two SWAPs ------------------
    if (opts_.enable_commute2 && !red.commute1) {
        int idx = -1;
        Gate swg;
        if (find_common(OpKind::kSwap, idx, swg)) {
            // All window records after the earlier SWAP must commute with
            // the facing CNOT; try both orientations.  Additionally the
            // trailing 1q gates of both wires must commute with the
            // facing CNOT: unlike Ccommute1 they sit *between* the two
            // facing CNOTs after decomposition and cannot all be moved
            // out of the way, so contamination voids the cancellation.
            for (SwapOrient o :
                 {SwapOrient::kFirst, SwapOrient::kSecond}) {
                Gate face = (o == SwapOrient::kFirst)
                                ? Gate::two_q(OpKind::kCX, p, q)
                                : Gate::two_q(OpKind::kCX, q, p);
                bool ok = true;
                for (int w : {p, q}) {
                    bool after = false;
                    for (const Rec &r : window_[w]) {
                        if (r.out_idx == idx) {
                            after = true;
                            continue;
                        }
                        if (!after || r.out_idx <= idx)
                            continue;
                        if (!gates_commute(r.gate, face)) {
                            ok = false;
                            break;
                        }
                    }
                    for (const Rec &r : trailing_[w]) {
                        if (!ok)
                            break;
                        if (r.out_idx > idx &&
                            !gates_commute(r.gate, face))
                            ok = false;
                    }
                    if (!ok)
                        break;
                }
                if (ok) {
                    red.commute2 = true;
                    red.total += 2.0;
                    red.orient = o;
                    red.partner_swap_out_idx = idx;
                    break;
                }
            }
        }
    }

    // The paper sums the enabled C_k terms (eq. 1).  We additionally cap
    // the claim at the SWAP's own three CNOTs: the optimizations largely
    // recover the *same* CNOTs, and without the cap SWAPs look profitable
    // in themselves, so the router chains "free" swaps that do not
    // advance the front layer.
    if (red.total > 3.0)
        red.total = 3.0;

    return red;
}

} // namespace nassc
