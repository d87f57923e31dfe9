#include "nassc/passes/basis_translation.h"

#include <stdexcept>

#include "nassc/ir/matrices.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/synth/kak2q.h"
#include "nassc/synth/mct.h"

namespace nassc {

QuantumCircuit
decompose_to_2q(const QuantumCircuit &qc)
{
    QuantumCircuit out(qc.num_qubits());
    // MCX expansion may introduce fresh CCX gates, so iterate to fixpoint
    // (two rounds suffice: mcx -> ccx -> 2q).
    QuantumCircuit cur = qc;
    for (int round = 0; round < 8; ++round) {
        bool changed = false;
        out = QuantumCircuit(qc.num_qubits());
        for (const Gate &g : cur.gates()) {
            switch (g.kind) {
              case OpKind::kCCX:
                for (Gate &d :
                     decompose_ccx(g.qubits[0], g.qubits[1], g.qubits[2]))
                    out.append(std::move(d));
                changed = true;
                break;
              case OpKind::kCCZ:
                for (Gate &d :
                     decompose_ccz(g.qubits[0], g.qubits[1], g.qubits[2]))
                    out.append(std::move(d));
                changed = true;
                break;
              case OpKind::kCSwap:
                for (Gate &d :
                     decompose_cswap(g.qubits[0], g.qubits[1], g.qubits[2]))
                    out.append(std::move(d));
                changed = true;
                break;
              case OpKind::kMCX: {
                std::vector<int> controls(g.qubits.begin(),
                                          g.qubits.end() - 1);
                for (Gate &d : decompose_mcx(controls, g.qubits.back(),
                                             qc.num_qubits()))
                    out.append(std::move(d));
                changed = true;
                break;
              }
              default:
                out.append(g);
            }
        }
        if (!changed)
            return out;
        cur = out;
    }
    throw std::logic_error("decompose_to_2q did not converge");
}

QuantumCircuit
translate_to_basis(const QuantumCircuit &qc)
{
    SynthMemo memo;
    return translate_to_basis(qc, memo);
}

QuantumCircuit
translate_to_basis(const QuantumCircuit &qc, SynthMemo &memo)
{
    // Every operand comes from the valid input circuit, so gates are
    // pushed directly, without append()'s per-gate range check.
    QuantumCircuit out(qc.num_qubits());
    std::vector<Gate> &gates = out.mutable_gates();
    gates.reserve(qc.size());
    std::vector<std::uint64_t> key;
    for (const Gate &g : qc.gates()) {
        if (g.kind == OpKind::kMeasure || g.kind == OpKind::kBarrier ||
            g.kind == OpKind::kCX) {
            gates.push_back(g);
            continue;
        }
        if (is_one_qubit(g.kind)) {
            // Leave 1q gates in place; the closing Optimize1qGates pass
            // merges runs and rewrites them into {rz, sx, x}.
            const int q = g.qubits[0];
            key.assign({SynthMemo::kTranslate1q,
                        static_cast<std::uint64_t>(Basis1q::kZsx)});
            SynthMemo::append_gate_key(key, g, 0);
            const std::uint64_t hash =
                SynthMemo::hash(key.data(), key.size());
            if (!memo.append_1q(key.data(), key.size(), hash, q, gates)) {
                const std::size_t from = gates.size();
                synth_1q_into(gates, gate_matrix1(g), q, Basis1q::kZsx);
                memo.insert_1q(key.data(), key.size(), hash, gates, from);
            }
            continue;
        }
        if (g.num_qubits() == 2) {
            // Synthesize through KAK: minimal CX count by construction.
            Mat4 u = gate_matrix2(g);
            for (Gate &d :
                 synth_2q_kak(u, g.qubits[0], g.qubits[1], Basis1q::kZsx))
                gates.push_back(std::move(d));
            continue;
        }
        throw std::invalid_argument(
            std::string("translate_to_basis: decompose ") + op_name(g.kind) +
            " first");
    }
    return out;
}

bool
is_basis_circuit(const QuantumCircuit &qc)
{
    for (const Gate &g : qc.gates()) {
        switch (g.kind) {
          case OpKind::kRZ:
          case OpKind::kSX:
          case OpKind::kX:
          case OpKind::kCX:
          case OpKind::kMeasure:
          case OpKind::kBarrier:
            break;
          default:
            return false;
        }
    }
    return true;
}

} // namespace nassc
