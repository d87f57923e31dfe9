#include "nassc/passes/commutation.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>

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

/** Cache key: structural description with quantized parameters. */
std::string
commute_key(const Gate &a, const Gate &b)
{
    // Relabel shared wires to canonical small integers.
    std::map<int, int> label;
    auto lab = [&](int q) {
        auto it = label.find(q);
        if (it != label.end())
            return it->second;
        int v = static_cast<int>(label.size());
        label[q] = v;
        return v;
    };
    std::ostringstream os;
    os << static_cast<int>(a.kind);
    for (int q : a.qubits)
        os << "." << lab(q);
    for (double p : a.params)
        os << "," << static_cast<long long>(p * 1e9);
    os << "|" << static_cast<int>(b.kind);
    for (int q : b.qubits)
        os << "." << lab(q);
    for (double p : b.params)
        os << "," << static_cast<long long>(p * 1e9);
    return os.str();
}

bool
is_z_axis_1q(OpKind k)
{
    return k == OpKind::kZ || k == OpKind::kS || k == OpKind::kSdg ||
           k == OpKind::kT || k == OpKind::kTdg || k == OpKind::kRZ ||
           k == OpKind::kP || k == OpKind::kId;
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

    // Exact fallback with memoization.  The memo is process-wide and
    // read by every concurrent transpile (batch workers, the async
    // service), so it is guarded by a shared_mutex: reads dominate
    // after warm-up and take the shared lock; a miss computes OUTSIDE
    // any lock (matrix_commute is pure) and publishes under the
    // exclusive lock.  Two racing computations of one key agree, so
    // last-writer-wins is harmless.
    static std::shared_mutex cache_mu;
    static std::map<std::string, bool> cache;
    std::string key = commute_key(a, b);
    {
        std::shared_lock<std::shared_mutex> lock(cache_mu);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }
    bool r = matrix_commute(a, b);
    std::unique_lock<std::shared_mutex> lock(cache_mu);
    if (cache.size() < 200000)
        cache[key] = r;
    return r;
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
