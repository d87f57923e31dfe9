#include "nassc/passes/optimize_1q.h"

#include "nassc/ir/matrices.h"
#include "nassc/passes/collect_blocks.h"

namespace nassc {

int
run_optimize_1q(QuantumCircuit &qc, Basis1q basis)
{
    SynthMemo memo;
    return run_optimize_1q(qc, basis, memo);
}

int
run_optimize_1q(QuantumCircuit &qc, Basis1q basis, SynthMemo &memo)
{
    // optimize_1q_runs() with each run's synthesis looked up by its
    // gates: a run is held as a chain of gate indices per wire (head,
    // tail, next), and its matrix product is formed only on a miss.
    std::vector<Gate> &gates = qc.mutable_gates();
    const int before = static_cast<int>(gates.size());
    std::vector<Gate> out;
    out.reserve(gates.size());
    std::vector<int> head(qc.num_qubits(), -1), tail(qc.num_qubits(), -1);
    std::vector<int> next(gates.size(), -1);
    std::vector<std::uint64_t> key;

    auto flush = [&](int q) {
        if (head[q] < 0)
            return;
        key.assign({SynthMemo::kRun1q, static_cast<std::uint64_t>(basis)});
        for (int i = head[q]; i >= 0; i = next[i])
            SynthMemo::append_gate_key(key, gates[i], 0);
        const std::uint64_t hash = SynthMemo::hash(key.data(), key.size());
        if (!memo.append_1q(key.data(), key.size(), hash, q, out)) {
            Mat2 u = Mat2::identity();
            for (int i = head[q]; i >= 0; i = next[i])
                u = mul(gate_matrix1(gates[i]), u);
            const std::size_t from = out.size();
            synth_1q_into(out, u, q, basis);
            memo.insert_1q(key.data(), key.size(), hash, out, from);
        }
        head[q] = -1;
    };

    for (std::size_t i = 0; i < gates.size(); ++i) {
        Gate &g = gates[i];
        if (is_one_qubit(g.kind)) {
            const int q = g.qubits[0];
            if (head[q] < 0)
                head[q] = static_cast<int>(i);
            else
                next[tail[q]] = static_cast<int>(i);
            tail[q] = static_cast<int>(i);
            continue;
        }
        for (int q : g.qubits)
            flush(q);
        out.push_back(std::move(g));
    }
    for (int q = 0; q < qc.num_qubits(); ++q)
        flush(q);

    gates = std::move(out);
    return before - static_cast<int>(gates.size());
}

} // namespace nassc
