#include "nassc/sim/noise.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nassc/sim/statevector.h"

namespace nassc {

NoiseModel
NoiseModel::from_backend(const Backend &backend)
{
    NoiseModel nm;
    int n = backend.coupling.num_qubits();
    nm.p1_ = backend.calibration.error_1q;
    nm.ro_ = backend.calibration.readout_error;
    nm.p2_.assign(n, std::vector<double>(n, 0.0));
    for (auto &[edge, err] : backend.calibration.error_cx) {
        nm.p2_[edge.first][edge.second] = err;
        nm.p2_[edge.second][edge.first] = err;
    }
    return nm;
}

double
NoiseModel::p2(int a, int b) const
{
    return p2_[a][b];
}

uint64_t
ideal_outcome(const QuantumCircuit &logical)
{
    Statevector sv(logical.num_qubits());
    sv.apply_circuit(logical.without_non_unitary());
    return sv.argmax();
}

SuccessRate
monte_carlo_success(const QuantumCircuit &physical, const NoiseModel &noise,
                    const std::vector<int> &final_l2p, uint64_t ideal_logical,
                    int trials, unsigned seed)
{
    if (trials <= 0)
        throw std::invalid_argument("monte_carlo_success: trials must be "
                                    "positive, got " +
                                    std::to_string(trials));
    // Compress to the active wires so 27-qubit devices stay simulable.
    std::vector<int> phys_to_compact(physical.num_qubits(), -1);
    std::vector<int> active;
    auto touch = [&](int p) {
        if (phys_to_compact[p] < 0) {
            phys_to_compact[p] = static_cast<int>(active.size());
            active.push_back(p);
        }
    };
    for (const Gate &g : physical.gates())
        if (is_unitary_op(g.kind))
            for (int q : g.qubits)
                touch(q);
    for (int p : final_l2p)
        touch(p);

    int n = static_cast<int>(active.size());
    if (n > 24)
        throw std::invalid_argument("too many active wires to simulate");

    QuantumCircuit compact(n);
    for (const Gate &g : physical.gates()) {
        if (!is_unitary_op(g.kind))
            continue;
        Gate cg = g;
        for (int &q : cg.qubits)
            q = phys_to_compact[q];
        compact.append(std::move(cg));
    }

    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> pauli1(1, 3);
    std::uniform_int_distribution<int> pauli2(1, 15);

    SuccessRate out;
    out.trials = trials;
    int nl = static_cast<int>(final_l2p.size());

    for (int t = 0; t < trials; ++t) {
        Statevector sv(n);
        for (const Gate &g : compact.gates()) {
            sv.apply(g);
            if (g.num_qubits() == 1) {
                int p_orig = active[g.qubits[0]];
                if (coin(rng) < noise.p1(p_orig))
                    sv.apply_pauli(pauli1(rng), g.qubits[0]);
            } else if (g.num_qubits() == 2) {
                int pa = active[g.qubits[0]];
                int pb = active[g.qubits[1]];
                if (coin(rng) < noise.p2(pa, pb)) {
                    int pp = pauli2(rng); // 2-qubit Pauli, not identity
                    int first = pp & 3;
                    int second = (pp >> 2) & 3;
                    if (first)
                        sv.apply_pauli(first, g.qubits[0]);
                    if (second)
                        sv.apply_pauli(second, g.qubits[1]);
                }
            }
        }
        uint64_t shot = sv.sample(rng);
        // Readout flips on the measured wires.
        uint64_t outcome = 0;
        for (int l = 0; l < nl; ++l) {
            int compact_wire = phys_to_compact[final_l2p[l]];
            int bit = (shot >> compact_wire) & 1;
            if (coin(rng) < noise.readout(final_l2p[l]))
                bit ^= 1;
            if (bit)
                outcome |= uint64_t(1) << l;
        }
        if (outcome == ideal_logical)
            ++out.hits;
    }
    out.rate = static_cast<double>(out.hits) / trials;
    return out;
}

} // namespace nassc
