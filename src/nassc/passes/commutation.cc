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

int
CommutationInfo::set_of(int wire, int gate_idx) const
{
    const std::vector<int> &gates = wire_gates[wire];
    auto it = std::lower_bound(gates.begin(), gates.end(), gate_idx);
    if (it == gates.end() || *it != gate_idx)
        return -1;
    return set_index[wire][it - gates.begin()];
}

CommutationInfo
analyze_commutation(const QuantumCircuit &qc)
{
    CommutationInfo info;
    int n = qc.num_qubits();
    info.wire_sets.resize(n);
    info.set_index.resize(n);
    info.wire_gates.resize(n);

    // One pass over the circuit files every gate under each wire it acts
    // on (once per wire, even if a wire repeats in its operand list), so
    // the cost follows the gates, not qubits x gates.  Each wire's list
    // is in circuit order, as a per-wire scan would produce it.
    for (size_t i = 0; i < qc.size(); ++i) {
        const int idx = static_cast<int>(i);
        for (int w : qc.gate(i).qubits) {
            std::vector<int> &on_wire = info.wire_gates[w];
            if (on_wire.empty() || on_wire.back() != idx)
                on_wire.push_back(idx);
        }
    }

    for (int w = 0; w < n; ++w) {
        std::vector<int> current;
        auto close = [&]() {
            if (!current.empty()) {
                info.wire_sets[w].push_back(current);
                current.clear();
            }
        };
        for (int i : info.wire_gates[w]) {
            const Gate &g = qc.gate(i);
            bool fits = true;
            for (int j : current) {
                if (!gates_commute(qc.gate(j), g)) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                close();
            current.push_back(i);
            info.set_index[w].push_back(
                static_cast<int>(info.wire_sets[w].size()));
        }
        close();
    }
    return info;
}

} // namespace nassc
