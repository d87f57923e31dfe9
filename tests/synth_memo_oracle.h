#ifndef NASSC_TESTS_SYNTH_MEMO_ORACLE_H
#define NASSC_TESTS_SYNTH_MEMO_ORACLE_H

// Test helper: translate_to_basis() before it took a SynthMemo, kept
// verbatim, and a check that the memoized 1q passes match it and
// optimize_1q_runs() (the memo-less Optimize1qGates, still in the
// library) bit for bit through a fresh memo and through a warmed one.

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/ir/matrices.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/optimize_1q.h"
#include "nassc/synth/euler1q.h"
#include "nassc/synth/kak2q.h"

namespace nassc {
namespace legacy {

/** translate_to_basis() before it took a SynthMemo. */
inline QuantumCircuit
translate_to_basis(const QuantumCircuit &qc)
{
    // Every operand comes from the valid input circuit, so gates are
    // pushed directly, without append()'s per-gate range check.
    QuantumCircuit out(qc.num_qubits());
    std::vector<Gate> &gates = out.mutable_gates();
    gates.reserve(qc.size());
    for (const Gate &g : qc.gates()) {
        if (g.kind == OpKind::kMeasure || g.kind == OpKind::kBarrier ||
            g.kind == OpKind::kCX) {
            gates.push_back(g);
            continue;
        }
        if (is_one_qubit(g.kind)) {
            // Leave 1q gates in place; the closing Optimize1qGates pass
            // merges runs and rewrites them into {rz, sx, x}.
            synth_1q_into(gates, gate_matrix1(g), g.qubits[0],
                          Basis1q::kZsx);
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

} // namespace legacy

/** Equal gate streams, parameters compared as raw bytes; returns
 *  whether they are, adding one failure naming `tag` when not. */
inline bool
same_bytes(const QuantumCircuit &a, const QuantumCircuit &b,
           const std::string &tag)
{
    bool same = a.num_qubits() == b.num_qubits() && a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        const Gate &x = a.gate(i), &y = b.gate(i);
        same = x.kind == y.kind && x.qubits == y.qubits &&
               x.swap_orient == y.swap_orient &&
               x.params.size() == y.params.size() &&
               std::memcmp(x.params.data(), y.params.data(),
                           x.params.size() * sizeof(double)) == 0;
    }
    EXPECT_TRUE(same) << tag;
    return same;
}

/**
 * run_optimize_1q() in both bases and translate_to_basis() on `in`: a
 * fresh memo, `warm` (twice, so the second call is answered from it)
 * and the memo-less pass give the same bytes.  `warm` keeps what it
 * learns, so a caller that passes one memo to every input checks hits
 * carried over from earlier inputs too.
 */
inline void
expect_1q_memo_exact(const QuantumCircuit &in, SynthMemo &warm,
                     const std::string &tag)
{
    for (Basis1q basis : {Basis1q::kUGate, Basis1q::kZsx}) {
        const std::string btag =
            tag + (basis == Basis1q::kUGate ? " opt1q/u" : " opt1q/zsx");
        QuantumCircuit want = in;
        const int removed =
            optimize_1q_runs(want.mutable_gates(), want.num_qubits(), basis);
        QuantumCircuit fresh = in;
        SynthMemo memo;
        EXPECT_EQ(run_optimize_1q(fresh, basis, memo), removed) << btag;
        same_bytes(fresh, want, btag + " fresh");
        for (int pass = 0; pass < 2; ++pass) {
            QuantumCircuit got = in;
            EXPECT_EQ(run_optimize_1q(got, basis, warm), removed) << btag;
            same_bytes(got, want, btag + " warmed");
        }
    }
    const QuantumCircuit want = legacy::translate_to_basis(in);
    SynthMemo memo;
    same_bytes(translate_to_basis(in, memo), want, tag + " translate fresh");
    for (int pass = 0; pass < 2; ++pass)
        same_bytes(translate_to_basis(in, warm), want,
                   tag + " translate warmed");
}

} // namespace nassc

#endif // NASSC_TESTS_SYNTH_MEMO_ORACLE_H
