#include "nassc/passes/cancellation.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nassc/math/su2.h"
#include "nassc/passes/commutation.h"

namespace nassc {

namespace {

bool
is_z_rotation_like(OpKind k)
{
    switch (k) {
      case OpKind::kZ:
      case OpKind::kS:
      case OpKind::kSdg:
      case OpKind::kT:
      case OpKind::kTdg:
      case OpKind::kRZ:
      case OpKind::kP:
        return true;
      default:
        return false;
    }
}

double
z_angle(const Gate &g)
{
    switch (g.kind) {
      case OpKind::kZ: return M_PI;
      case OpKind::kS: return M_PI / 2.0;
      case OpKind::kSdg: return -M_PI / 2.0;
      case OpKind::kT: return M_PI / 4.0;
      case OpKind::kTdg: return -M_PI / 4.0;
      case OpKind::kRZ:
      case OpKind::kP:
        return g.params[0];
      default:
        return 0.0;
    }
}

/** Storage of one cancellation round, reused across fixpoint rounds. */
struct CancelWorkspace
{
    CommutationInfo info;
    std::vector<char> removed;
    std::vector<int> candidates;
};

int
cancel_round(QuantumCircuit &qc, CancelWorkspace &ws)
{
    analyze_commutation(qc, ws.info);
    const CommutationInfo &info = ws.info;
    std::vector<Gate> &gates = qc.mutable_gates();
    const int num_gates = static_cast<int>(gates.size());
    std::vector<char> &removed = ws.removed;
    removed.assign(num_gates, 0);
    std::vector<int> &candidates = ws.candidates;
    int removed_count = 0;

    // Self-inverse candidates of one set are keyed by (kind, qubits).  A
    // pair of one key cancels when both gates sit in the same commute set
    // on *every* wire they act on; their operand lists are equal, so the
    // sets compare operand by operand.
    auto key_less = [&](int a, int b) {
        if (gates[a].kind != gates[b].kind)
            return gates[a].kind < gates[b].kind;
        return gates[a].qubits < gates[b].qubits;
    };
    auto same_key = [&](int a, int b) {
        return gates[a].kind == gates[b].kind &&
               gates[a].qubits == gates[b].qubits;
    };
    auto same_sets_everywhere = [&](int a, int b) {
        const int *ea = &info.operand_entry[info.operand_start[a]];
        const int *eb = &info.operand_entry[info.operand_start[b]];
        for (int k = 0; k < gates[a].num_qubits(); ++k)
            if (info.entry_set[ea[k]] != info.entry_set[eb[k]])
                return false;
        return true;
    };

    // Each set is handled once, on its wire.  A gate's candidacy and its
    // z-merge both happen in the set of its first wire, so the sets are
    // independent: pairs of different keys never interact, and a z gate
    // can only have been removed by its own set's pairing.
    for (int w = 0; w < qc.num_qubits(); ++w) {
        const int wire_end = info.wire_start[w + 1];
        for (int begin = info.wire_start[w], end; begin < wire_end;
             begin = end) {
            end = begin + 1;
            while (end < wire_end &&
                   info.entry_set[end] == info.entry_set[begin])
                ++end;
            if (end - begin < 2)
                continue;

            // --- self-inverse pair cancellation ---------------------------
            // Each gate is a candidate from its first wire only, so a 2q
            // gate is not processed twice.  The stable sort keeps every
            // key's gates in circuit order, and each key cancels
            // adjacent-in-set pairs greedily.
            candidates.clear();
            for (int e = begin; e < end; ++e) {
                const int idx = info.entry_gate[e];
                const Gate &g = gates[idx];
                if (is_self_inverse(g.kind) && g.qubits[0] == w)
                    candidates.push_back(idx);
            }
            if (candidates.size() >= 2) // else skip the sort's buffer
                std::stable_sort(candidates.begin(), candidates.end(),
                                 key_less);
            for (std::size_t i = 0; i + 1 < candidates.size();) {
                const int a = candidates[i], b = candidates[i + 1];
                if (same_key(a, b) && same_sets_everywhere(a, b)) {
                    removed[a] = removed[b] = 1;
                    removed_count += 2;
                    i += 2;
                } else {
                    ++i;
                }
            }

            // --- z-rotation merging ---------------------------------------
            // The surviving z-axis rotations fold into the first one, which
            // becomes a single rz, or goes too if the angles cancel.
            int first = -1;
            bool merged = false;
            double total = 0.0;
            for (int e = begin; e < end; ++e) {
                const int idx = info.entry_gate[e];
                const Gate &g = gates[idx];
                if (removed[idx] || g.num_qubits() != 1 ||
                    !is_z_rotation_like(g.kind))
                    continue;
                total += z_angle(g);
                if (first < 0) {
                    first = idx;
                } else {
                    removed[idx] = 1;
                    ++removed_count;
                    merged = true;
                }
            }
            if (!merged)
                continue;
            total = norm_angle(total);
            if (std::abs(total) < 1e-12) {
                removed[first] = 1;
                ++removed_count;
            } else {
                gates[first] = Gate::one_q(OpKind::kRZ, w, total);
            }
        }
    }

    // Compact the survivors in place.
    std::size_t kept = 0;
    for (int i = 0; i < num_gates; ++i) {
        if (removed[i])
            continue;
        if (kept != static_cast<std::size_t>(i))
            gates[kept] = std::move(gates[i]);
        ++kept;
    }
    gates.erase(gates.begin() + static_cast<std::ptrdiff_t>(kept),
                gates.end());
    return removed_count;
}

} // namespace

int
run_commutative_cancellation(QuantumCircuit &qc)
{
    CancelWorkspace ws;
    return cancel_round(qc, ws);
}

int
run_commutative_cancellation_to_fixpoint(QuantumCircuit &qc, int max_rounds)
{
    CancelWorkspace ws;
    int total = 0;
    for (int round = 0; round < max_rounds; ++round) {
        int r = cancel_round(qc, ws);
        total += r;
        if (r == 0)
            break;
    }
    return total;
}

} // namespace nassc
