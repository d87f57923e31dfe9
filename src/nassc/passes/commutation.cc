#include "nassc/passes/commutation.h"

#include <algorithm>

#include "nassc/ir/matrices.h"
#include "nassc/sim/unitary.h"

namespace nassc {

namespace {

/** Exact commutation check on the union of wires (<= 4 qubits). */
bool
matrix_commute(const Gate &a, const Gate &b)
{
    // Collect the union of wires and relabel densely.
    std::vector<int> wires;
    for (int q : a.qubits)
        wires.push_back(q);
    for (int q : b.qubits)
        wires.push_back(q);
    std::sort(wires.begin(), wires.end());
    wires.erase(std::unique(wires.begin(), wires.end()), wires.end());

    auto relabel = [&](const Gate &g) {
        Gate r = g;
        for (int &q : r.qubits)
            q = static_cast<int>(std::lower_bound(wires.begin(), wires.end(),
                                                  q) -
                                 wires.begin());
        return r;
    };

    int n = static_cast<int>(wires.size());
    QuantumCircuit ab(n), ba(n);
    ab.append(relabel(a));
    ab.append(relabel(b));
    ba.append(relabel(b));
    ba.append(relabel(a));
    MatN uab = unitary_of_circuit(ab);
    MatN uba = unitary_of_circuit(ba);
    return frobenius_distance(uab, uba) < 1e-9;
}

bool
is_z_axis_1q(OpKind k)
{
    return is_one_qubit(k) && is_diagonal(k);
}

bool
is_x_axis_1q(OpKind k)
{
    return k == OpKind::kX || k == OpKind::kSX || k == OpKind::kSXdg ||
           k == OpKind::kRX || k == OpKind::kId;
}

} // namespace

bool
gates_commute(const Gate &a, const Gate &b)
{
    if (a.kind == OpKind::kBarrier || b.kind == OpKind::kBarrier)
        return false;
    if (a.kind == OpKind::kMeasure || b.kind == OpKind::kMeasure) {
        // Measures commute with ops on other wires only.
        for (int q : a.qubits)
            if (b.acts_on(q))
                return false;
        return true;
    }

    // Disjoint supports always commute.
    bool overlap = false;
    for (int q : a.qubits)
        if (b.acts_on(q))
            overlap = true;
    if (!overlap)
        return true;

    // Fast paths for the dominant CX/CX and CX/1q cases.
    if (a.kind == OpKind::kCX && b.kind == OpKind::kCX) {
        int ac = a.qubits[0], at = a.qubits[1];
        int bc = b.qubits[0], bt = b.qubits[1];
        // Sharing only controls or only targets commutes; a control
        // meeting a target does not.
        if (ac == bt || at == bc)
            return false;
        return true;
    }
    if (a.kind == OpKind::kCX && is_one_qubit(b.kind)) {
        if (b.qubits[0] == a.qubits[0])
            return is_z_axis_1q(b.kind);
        if (b.qubits[0] == a.qubits[1])
            return is_x_axis_1q(b.kind);
    }
    if (b.kind == OpKind::kCX && is_one_qubit(a.kind))
        return gates_commute(b, a);
    if (is_diagonal(a.kind) && is_diagonal(b.kind))
        return true;

    // Two 1q gates that overlap share their one wire: compare the 2x2
    // products directly, on the same space matrix_commute would build.
    if (is_one_qubit(a.kind) && is_one_qubit(b.kind)) {
        const Mat2 ma = gate_matrix1(a), mb = gate_matrix1(b);
        return frobenius_distance(mul(ma, mb), mul(mb, ma)) < 1e-9;
    }
    return matrix_commute(a, b);
}

void
analyze_commutation(const QuantumCircuit &qc, CommutationInfo &info)
{
    const int n = qc.num_qubits();
    const int num_gates = static_cast<int>(qc.size());

    // Count each wire's gates in one pass over the circuit, so the cost
    // follows the gates, not qubits x gates.  A gate's operands are
    // distinct (the Gate constructor checks), so each operand is one
    // entry.  wire_start[w] becomes the end of wire w's entries.
    info.wire_start.assign(n + 1, 0);
    info.operand_start.resize(num_gates + 1);
    int operands = 0;
    for (int i = 0; i < num_gates; ++i) {
        info.operand_start[i] = operands;
        for (int w : qc.gate(i).qubits)
            ++info.wire_start[w];
        operands += qc.gate(i).num_qubits();
    }
    info.operand_start[num_gates] = operands;
    for (int w = 1; w < n; ++w)
        info.wire_start[w] += info.wire_start[w - 1];
    info.wire_start[n] = operands;

    // File the gates last to first, each at the back of its wires' free
    // ranges: every wire's list ends up in circuit order and wire_start[w]
    // at its first entry.
    info.entry_gate.resize(operands);
    info.entry_set.resize(operands);
    info.operand_entry.resize(operands);
    for (int i = num_gates - 1; i >= 0; --i) {
        const QubitVec &qs = qc.gate(i).qubits;
        for (std::size_t k = 0; k < qs.size(); ++k) {
            const int e = --info.wire_start[qs[k]];
            info.entry_gate[e] = i;
            info.operand_entry[info.operand_start[i] + k] = e;
        }
    }

    // A gate joins the open set on its wire if it commutes with every
    // member; otherwise it opens the next set.
    for (int w = 0; w < n; ++w) {
        const int end = info.wire_start[w + 1];
        int set_begin = info.wire_start[w];
        int ordinal = 0;
        for (int e = set_begin; e < end; ++e) {
            const Gate &g = qc.gate(info.entry_gate[e]);
            for (int j = set_begin; j < e; ++j) {
                if (!gates_commute(qc.gate(info.entry_gate[j]), g)) {
                    ++ordinal;
                    set_begin = e;
                    break;
                }
            }
            info.entry_set[e] = ordinal;
        }
    }
}

CommutationInfo
analyze_commutation(const QuantumCircuit &qc)
{
    CommutationInfo info;
    analyze_commutation(qc, info);
    return info;
}

} // namespace nassc
