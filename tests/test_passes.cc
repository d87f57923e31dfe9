// Tests for the optimization passes: basis translation, block
// collection/consolidation, commutation analysis, commutative
// cancellation, and SWAP decomposition.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/commutation.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"
#include "nassc/sim/unitary.h"
#include "nassc/synth/kak2q.h"
#include "synth_memo_oracle.h"

namespace nassc {
namespace {

// ---- basis translation ------------------------------------------------------

TEST(BasisTranslation, DecomposesToffoli)
{
    QuantumCircuit qc(3);
    qc.ccx(0, 1, 2);
    QuantumCircuit low = decompose_to_2q(qc);
    for (const Gate &g : low.gates())
        EXPECT_LE(g.num_qubits(), 2);
    EXPECT_TRUE(circuits_equivalent(qc, low));
}

TEST(BasisTranslation, DecomposesMcxThroughCcx)
{
    QuantumCircuit qc(6);
    qc.mcx({0, 1, 2, 3}, 4);
    QuantumCircuit low = decompose_to_2q(qc);
    for (const Gate &g : low.gates())
        EXPECT_LE(g.num_qubits(), 2);
    EXPECT_TRUE(circuits_equivalent(qc, low));
}

TEST(BasisTranslation, TranslatesToIbmBasis)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.t(1);
    qc.cz(0, 1);
    qc.cp(0.3, 1, 2);
    qc.swap(0, 2);
    qc.rzz(0.5, 0, 1);
    QuantumCircuit basis = translate_to_basis(qc);
    EXPECT_TRUE(is_basis_circuit(basis));
    EXPECT_TRUE(circuits_equivalent(qc, basis));
}

TEST(BasisTranslation, CzCostsOneCx)
{
    QuantumCircuit qc(2);
    qc.cz(0, 1);
    QuantumCircuit basis = translate_to_basis(qc);
    EXPECT_EQ(basis.cx_count(), 1);
}

TEST(BasisTranslation, CpCostsTwoCx)
{
    QuantumCircuit qc(2);
    qc.cp(0.4, 0, 1);
    QuantumCircuit basis = translate_to_basis(qc);
    EXPECT_EQ(basis.cx_count(), 2);
}

TEST(BasisTranslation, PreservesMeasure)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.measure(0);
    QuantumCircuit basis = translate_to_basis(qc);
    EXPECT_EQ(basis.count(OpKind::kMeasure), 1);
}

// ---- block collection -------------------------------------------------------

TEST(CollectBlocks, SingleBlock)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.t(1);
    qc.cx(0, 1);
    auto blocks = collect_2q_blocks(qc);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].q0, 0);
    EXPECT_EQ(blocks[0].q1, 1);
    EXPECT_EQ(blocks[0].gate_indices.size(), 4u);
    EXPECT_EQ(blocks[0].num_2q, 2);
}

TEST(CollectBlocks, BrokenByThirdWire)
{
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 2); // touches wire 1 -> closes first block
    qc.cx(0, 1);
    auto blocks = collect_2q_blocks(qc);
    ASSERT_EQ(blocks.size(), 3u);
}

TEST(CollectBlocks, BrokenByBarrier)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.barrier();
    qc.cx(0, 1);
    auto blocks = collect_2q_blocks(qc);
    ASSERT_EQ(blocks.size(), 2u);
}

TEST(Consolidate, CancelsDoubleCx)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.cx(0, 1);
    auto stats = consolidate_2q_blocks(qc);
    EXPECT_EQ(stats.blocks_replaced, 1);
    EXPECT_EQ(qc.cx_count(), 0);
}

TEST(Consolidate, CompressesLongBlock)
{
    // Any block on one pair can be rewritten with <= 3 CNOTs.
    QuantumCircuit qc(2);
    for (int i = 0; i < 6; ++i) {
        qc.cx(i % 2, 1 - i % 2);
        qc.t(0);
        qc.rx(0.3 + i, 1);
    }
    QuantumCircuit before = qc;
    auto stats = consolidate_2q_blocks(qc);
    EXPECT_EQ(stats.blocks_replaced, 1);
    EXPECT_LE(qc.cx_count(), 3);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Consolidate, AbsorbsSwapIntoRichBlock)
{
    // Paper Sec. III: a SWAP following a 3-CNOT block is free.
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.ry(0.4, 0);
    qc.cx(1, 0);
    qc.rz(0.7, 1);
    qc.cx(0, 1);
    qc.ry(1.1, 1);
    qc.swap(0, 1);
    QuantumCircuit before = qc;
    consolidate_2q_blocks(qc);
    EXPECT_LE(qc.cx_count() + 3 * qc.count(OpKind::kSwap), 3);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Consolidate, SwapPlusCnotCostsTwo)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.swap(0, 1);
    QuantumCircuit before = qc;
    consolidate_2q_blocks(qc);
    EXPECT_EQ(qc.cx_count() + 3 * qc.count(OpKind::kSwap), 2);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Consolidate, LeavesSingleCheapGates)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    auto stats = consolidate_2q_blocks(qc);
    EXPECT_EQ(stats.blocks_replaced, 0);
    EXPECT_EQ(qc.cx_count(), 1);
}

TEST(Consolidate, PreservesSemanticsOnBenchmarks)
{
    QuantumCircuit qc = decompose_to_2q(grover(4));
    QuantumCircuit before = qc;
    consolidate_2q_blocks(qc);
    EXPECT_TRUE(circuits_equivalent(before, qc));
    QuantumCircuit qc2 = qft(4);
    QuantumCircuit before2 = qc2;
    consolidate_2q_blocks(qc2);
    EXPECT_TRUE(circuits_equivalent(before2, qc2));
}

// ---- synthesis memo ---------------------------------------------------------

/** Gate streams equal bit for bit (parameters compared as raw bits). */
void
expect_same_bits(const QuantumCircuit &a, const QuantumCircuit &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &x = a.gate(i), &y = b.gate(i);
        EXPECT_EQ(x.kind, y.kind) << "gate " << i;
        EXPECT_EQ(x.qubits, y.qubits) << "gate " << i;
        EXPECT_EQ(x.swap_orient, y.swap_orient) << "gate " << i;
        ASSERT_EQ(x.params.size(), y.params.size()) << "gate " << i;
        EXPECT_EQ(std::memcmp(x.params.data(), y.params.data(),
                              x.params.size() * sizeof(double)),
                  0)
            << "gate " << i;
    }
}

/** cx, ry(theta), reversed cx, rz(0.7) on (a, b), `reps` times over.
 *  One copy is kept as is; two (4 CX) are replaced by <= 3 CX. */
QuantumCircuit
memo_block(int n, int a, int b, double theta = 0.4, int reps = 1)
{
    QuantumCircuit qc(n);
    for (int r = 0; r < reps; ++r) {
        qc.cx(a, b);
        qc.ry(theta, a);
        qc.cx(b, a);
        qc.rz(0.7, b);
    }
    return qc;
}

/** Consolidation of a copy through a memo of its own. */
QuantumCircuit
fresh_consolidation(const QuantumCircuit &qc,
                    Basis1q basis = Basis1q::kUGate)
{
    QuantumCircuit out = qc;
    consolidate_2q_blocks(out, basis);
    return out;
}

/** `a` then `b`: two blocks on disjoint wires, so its consolidation is
 *  each one's consolidation in turn. */
QuantumCircuit
then(const QuantumCircuit &a, const QuantumCircuit &b)
{
    QuantumCircuit qc = a;
    qc.compose(b);
    return qc;
}

TEST(SynthMemo, RepeatedBlockOnAnotherPairIsReusedAndRelabelled)
{
    for (int reps : {1, 2}) {
        QuantumCircuit a = memo_block(5, 0, 1, 0.4, reps);
        QuantumCircuit b = memo_block(5, 2, 4, 0.4, reps);
        QuantumCircuit qc = then(a, b);
        SynthMemo memo;
        ConsolidateStats st =
            consolidate_2q_blocks(qc, Basis1q::kUGate, memo);
        EXPECT_EQ(st.blocks_considered, 2);
        EXPECT_EQ(st.blocks_reused, 1);
        EXPECT_EQ(st.blocks_replaced, reps == 2 ? 2 : 0);
        EXPECT_EQ(memo.size(), 1u);
        EXPECT_TRUE(circuits_equivalent(then(a, b), qc));
        expect_same_bits(qc, then(fresh_consolidation(a),
                                  fresh_consolidation(b)));
        if (reps == 2) {
            // The reused copy is what synthesis on (2, 4) emits.
            QuantumCircuit direct(5);
            for (Gate &g : synth_2q_kak(
                     unitary_of_2q_gates(b.gates(), 2, 4), 2, 4))
                direct.append(std::move(g));
            expect_same_bits(then(fresh_consolidation(a), direct), qc);
        }
    }
}

TEST(SynthMemo, ParameterOneUlpApartMisses)
{
    QuantumCircuit a = memo_block(5, 0, 1, 0.4, 2);
    QuantumCircuit b = memo_block(5, 2, 4, std::nextafter(0.4, 1.0), 2);
    QuantumCircuit qc = then(a, b);
    SynthMemo memo;
    ConsolidateStats st = consolidate_2q_blocks(qc, Basis1q::kUGate, memo);
    EXPECT_EQ(st.blocks_considered, 2);
    EXPECT_EQ(st.blocks_reused, 0);
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_TRUE(circuits_equivalent(then(a, b), qc));
    expect_same_bits(qc,
                     then(fresh_consolidation(a), fresh_consolidation(b)));
}

TEST(SynthMemo, ReversedTwoQubitOrientationMisses)
{
    QuantumCircuit a = memo_block(5, 0, 1, 0.4, 2);
    // The same gates on (2, 4), with each cx's control and target
    // swapped.
    QuantumCircuit b(5);
    for (int r = 0; r < 2; ++r) {
        b.cx(4, 2);
        b.ry(0.4, 2);
        b.cx(2, 4);
        b.rz(0.7, 4);
    }
    QuantumCircuit qc = then(a, b);
    SynthMemo memo;
    ConsolidateStats st = consolidate_2q_blocks(qc, Basis1q::kUGate, memo);
    EXPECT_EQ(st.blocks_considered, 2);
    EXPECT_EQ(st.blocks_reused, 0);
    EXPECT_TRUE(circuits_equivalent(then(a, b), qc));
    expect_same_bits(qc,
                     then(fresh_consolidation(a), fresh_consolidation(b)));
}

TEST(SynthMemo, BasisIsPartOfTheKey)
{
    QuantumCircuit block = memo_block(2, 0, 1, 0.4, 2);
    SynthMemo memo;
    for (Basis1q basis : {Basis1q::kUGate, Basis1q::kZsx}) {
        QuantumCircuit qc = block;
        ConsolidateStats st = consolidate_2q_blocks(qc, basis, memo);
        EXPECT_EQ(st.blocks_reused, 0);
        EXPECT_TRUE(circuits_equivalent(block, qc));
        expect_same_bits(qc, fresh_consolidation(block, basis));
    }
    EXPECT_EQ(memo.size(), 2u);
    // The same block in a basis already seen is a hit.
    QuantumCircuit qc = block;
    ConsolidateStats st = consolidate_2q_blocks(qc, Basis1q::kZsx, memo);
    EXPECT_EQ(st.blocks_reused, 1);
    expect_same_bits(qc, fresh_consolidation(block, Basis1q::kZsx));
}

TEST(SynthMemo, HashMatchAloneIsNotAHit)
{
    // Two keys forced onto one hash: the full-key compare tells them
    // apart, and each keeps its own outcome.
    const std::uint64_t k1[] = {0, 7, 11}, k2[] = {0, 7, 12};
    const std::uint64_t kHash = 42;
    SynthMemo memo;
    memo.insert(k1, 3, kHash, false, 2, {});
    EXPECT_EQ(memo.find(k2, 3, kHash), nullptr);
    EXPECT_EQ(memo.find(k1, 2, kHash), nullptr);
    memo.insert(k2, 3, kHash, true, 1, {Gate::two_q(OpKind::kCX, 1, 0)});
    const SynthMemo::Entry *e1 = memo.find(k1, 3, kHash);
    const SynthMemo::Entry *e2 = memo.find(k2, 3, kHash);
    ASSERT_NE(e1, nullptr);
    ASSERT_NE(e2, nullptr);
    EXPECT_FALSE(e1->replace);
    EXPECT_EQ(e1->new_cost, 2);
    EXPECT_TRUE(e2->replace);
    std::vector<Gate> out;
    memo.append_gates(*e2, 3, 5, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], Gate::two_q(OpKind::kCX, 5, 3));
}

TEST(SynthMemo, OverflowingTheBoundsClearsWithoutChangingOutput)
{
    // 12,500 distinct blocks of 13 key words each (tag and basis words,
    // 7 gate words, 4 parameters): 162,500 words, past the 128 Ki bound.
    // A fourth cx makes every block a replace, whose gates fill the pool.
    const int kBlocks = 12500;
    for (bool replaced : {false, true}) {
        QuantumCircuit qc(3);
        for (int k = 0; k < kBlocks; ++k) {
            int a = k % 2, b = a + 1;
            double t = 1e-4 * (k + 1);
            qc.cx(a, b);
            qc.ry(0.3 + t, a);
            qc.rz(0.5 - t, b);
            qc.cx(b, a);
            qc.rx(0.7 + t, a);
            qc.ry(1.1 - t, b);
            qc.cx(a, b);
            if (replaced)
                qc.cx(b, a);
        }
        QuantumCircuit fresh = qc;
        ConsolidateStats fs = consolidate_2q_blocks(fresh, Basis1q::kUGate);
        ASSERT_EQ(fs.blocks_considered, kBlocks);
        EXPECT_EQ(fs.blocks_replaced, replaced ? kBlocks : 0);
        EXPECT_TRUE(circuits_equivalent(qc, fresh));

        SynthMemo memo;
        for (int pass = 0; pass < 2; ++pass) {
            QuantumCircuit out = qc;
            ConsolidateStats st =
                consolidate_2q_blocks(out, Basis1q::kUGate, memo);
            EXPECT_EQ(st.blocks_considered, kBlocks);
            EXPECT_EQ(st.blocks_replaced, fs.blocks_replaced);
            EXPECT_EQ(st.cx_before, fs.cx_before);
            EXPECT_EQ(st.cx_after, fs.cx_after);
            EXPECT_LE(memo.key_words(), SynthMemo::kMaxKeyWords);
            EXPECT_LT(memo.size(), static_cast<size_t>(kBlocks));
            expect_same_bits(out, fresh);
        }
    }
}

/**
 * Seeded random circuit built to probe the 1q memo's key: rz(+0.0) and
 * rz(-0.0), rz(2*pi), angles one ULP apart, u gates beside rz/sx runs
 * of similar unitaries, and cx breaks, drawn from small pools so runs
 * recur within and across circuits.
 */
QuantumCircuit
memo_probe_circuit(std::mt19937 &rng, int n, int gates)
{
    const double a = 0.7853981633974483; // pi/4
    const double angles[] = {0.0,
                             -0.0,
                             2.0 * M_PI,
                             -2.0 * M_PI,
                             a,
                             std::nextafter(a, 1.0),
                             std::nextafter(a, 0.0),
                             M_PI,
                             -M_PI / 2.0,
                             1.234};
    auto pick = [&](int k) {
        return std::uniform_int_distribution<int>(0, k - 1)(rng);
    };
    auto angle = [&] { return angles[pick(std::size(angles))]; };
    QuantumCircuit qc(n);
    for (int k = 0; k < gates; ++k) {
        const int q = pick(n);
        switch (pick(9)) {
          case 0: qc.rz(angle(), q); break;
          case 1: qc.sx(q); break;
          case 2: qc.x(q); break;
          case 3: qc.u(angle(), angle(), angle(), q); break;
          case 4: qc.h(q); break;
          case 5: qc.ry(angle(), q); break;
          case 6: qc.append(Gate::one_q(OpKind::kT, q)); break;
          case 7: qc.rz(angle(), q); qc.sx(q); qc.rz(angle(), q); break;
          default: {
            const int r = (q + 1 + pick(n - 1)) % n;
            qc.cx(q, r);
          }
        }
    }
    return qc;
}

TEST(SynthMemo, OneQubitPassesMatchLegacyOnRandomCircuits)
{
    std::mt19937 rng(20221);
    SynthMemo warm;
    for (int c = 0; c < 300; ++c) {
        const QuantumCircuit qc =
            memo_probe_circuit(rng, 2 + c % 3, 4 + c % 40);
        expect_1q_memo_exact(qc, warm, "circuit " + std::to_string(c));
    }
    EXPECT_GT(warm.hits(), warm.misses());
}

TEST(SynthMemo, SignedZeroAndOneUlpAnglesAreDistinctEntries)
{
    const double a = 0.4;
    for (double b : {-0.0, std::nextafter(a, 1.0)}) {
        const double first = b == 0.0 ? 0.0 : a;
        SynthMemo memo;
        QuantumCircuit x(1), y(1);
        x.rz(first, 0);
        y.rz(b, 0);
        for (const QuantumCircuit *qc : {&x, &y}) {
            QuantumCircuit out = *qc;
            run_optimize_1q(out, Basis1q::kUGate, memo);
            QuantumCircuit want = *qc;
            optimize_1q_runs(want.mutable_gates(), 1, Basis1q::kUGate);
            same_bytes(out, want, "rz");
        }
        EXPECT_EQ(memo.size(), 2u);
        EXPECT_EQ(memo.hits(), 0u);
    }
}

TEST(SynthMemo, OneGateRunAndTranslateDoNotShareAnEntry)
{
    // The same rz as a one-gate Optimize1qGates run and as a translated
    // gate, both in the {rz, sx, x} basis: two entries, and each later
    // call hits its own.
    QuantumCircuit qc(2);
    qc.rz(0.3, 1);
    SynthMemo memo;
    QuantumCircuit run = qc;
    run_optimize_1q(run, Basis1q::kZsx, memo);
    EXPECT_EQ(memo.size(), 1u);
    translate_to_basis(qc, memo);
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.hits(), 0u);
    run = qc;
    run_optimize_1q(run, Basis1q::kZsx, memo);
    same_bytes(translate_to_basis(qc, memo), legacy::translate_to_basis(qc),
               "translate");
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.hits(), 2u);
}

TEST(SynthMemo, OneQubitOverflowClearsWithoutChangingOutput)
{
    // A 1q entry keeps its key and its synthesis in the key arena.  An
    // rz run takes 6 words (tag, basis, gate word, angle; then rz and its
    // angle): 25,000 distinct runs pass the 128 Ki-word bound.  A
    // generic u run takes 14 (6 of key, then rz sx rz sx rz): 10,000 pass
    // it.  Each run is closed by a cx, so every gate is its own run.
    const std::size_t kRzRuns = 25000, kURuns = 10000;
    for (bool generic : {false, true}) {
        const std::size_t runs = generic ? kURuns : kRzRuns;
        QuantumCircuit qc(2);
        for (std::size_t k = 0; k < runs; ++k) {
            const double t = 0.1 + 1e-5 * static_cast<double>(k);
            if (generic)
                qc.u(t, 0.2 + t, 0.3 - t, 0);
            else
                qc.rz(t, 0);
            qc.cx(0, 1);
        }
        QuantumCircuit want = qc;
        optimize_1q_runs(want.mutable_gates(), 2, Basis1q::kZsx);
        const QuantumCircuit want_translated = legacy::translate_to_basis(qc);
        SynthMemo memo;
        for (int pass = 0; pass < 2; ++pass) {
            QuantumCircuit got = qc;
            run_optimize_1q(got, Basis1q::kZsx, memo);
            same_bytes(got, want, "opt1q pass " + std::to_string(pass));
            same_bytes(translate_to_basis(qc, memo), want_translated,
                       "translate pass " + std::to_string(pass));
            EXPECT_LE(memo.key_words(), SynthMemo::kMaxKeyWords);
            EXPECT_EQ(memo.pooled_gates(), 0u);
            EXPECT_LT(memo.size(), runs);
        }
    }
}

// ---- commutation ------------------------------------------------------------

TEST(Commutation, DisjointGatesCommute)
{
    EXPECT_TRUE(gates_commute(Gate::one_q(OpKind::kH, 0),
                              Gate::one_q(OpKind::kX, 1)));
}

TEST(Commutation, CxSharingControlCommutes)
{
    EXPECT_TRUE(gates_commute(Gate::two_q(OpKind::kCX, 0, 1),
                              Gate::two_q(OpKind::kCX, 0, 2)));
}

TEST(Commutation, CxSharingTargetCommutes)
{
    // The paper's Fig. 4 example.
    EXPECT_TRUE(gates_commute(Gate::two_q(OpKind::kCX, 0, 2),
                              Gate::two_q(OpKind::kCX, 1, 2)));
}

TEST(Commutation, CxControlMeetingTargetDoesNot)
{
    EXPECT_FALSE(gates_commute(Gate::two_q(OpKind::kCX, 0, 1),
                               Gate::two_q(OpKind::kCX, 1, 2)));
    EXPECT_FALSE(gates_commute(Gate::two_q(OpKind::kCX, 0, 1),
                               Gate::two_q(OpKind::kCX, 1, 0)));
}

TEST(Commutation, RzOnControlCommutes)
{
    EXPECT_TRUE(gates_commute(Gate::one_q(OpKind::kRZ, 0, 0.3),
                              Gate::two_q(OpKind::kCX, 0, 1)));
    EXPECT_FALSE(gates_commute(Gate::one_q(OpKind::kRZ, 1, 0.3),
                               Gate::two_q(OpKind::kCX, 0, 1)));
}

TEST(Commutation, XOnTargetCommutes)
{
    EXPECT_TRUE(gates_commute(Gate::one_q(OpKind::kX, 1),
                              Gate::two_q(OpKind::kCX, 0, 1)));
    EXPECT_FALSE(gates_commute(Gate::one_q(OpKind::kX, 0),
                               Gate::two_q(OpKind::kCX, 0, 1)));
}

TEST(Commutation, MatrixFallbackCrx)
{
    // The controlled-Rx commutes with a CX sharing the control wire
    // (paper Sec. IV-B example) ...
    EXPECT_TRUE(gates_commute(Gate::two_q(OpKind::kCRX, 0, 1, 0.7),
                              Gate::two_q(OpKind::kCX, 0, 2)));
    // ... and with a CX sharing its *target* as the target.
    EXPECT_TRUE(gates_commute(Gate::two_q(OpKind::kCRX, 0, 1, 0.7),
                              Gate::two_q(OpKind::kCX, 2, 1)));
}

/** Ordinal of the set holding gate `gate_idx` on `wire`, or -1. */
int
set_of(const CommutationInfo &info, int wire, int gate_idx)
{
    for (int e = info.wire_start[wire]; e < info.wire_start[wire + 1]; ++e)
        if (info.entry_gate[e] == gate_idx)
            return info.entry_set[e];
    return -1;
}

TEST(Commutation, AnalysisGroupsSets)
{
    QuantumCircuit qc(3);
    qc.cx(0, 2); // 0
    qc.cx(1, 2); // 1  (commutes with 0: shared target)
    qc.h(2);     // 2  (breaks the set on wire 2)
    qc.cx(0, 2); // 3
    CommutationInfo info = analyze_commutation(qc);
    EXPECT_EQ(set_of(info, 2, 0), set_of(info, 2, 1));
    EXPECT_NE(set_of(info, 2, 1), set_of(info, 2, 3));
    EXPECT_EQ(set_of(info, 1, 1), 0);
    EXPECT_EQ(set_of(info, 2, 2), set_of(info, 2, 2));
    EXPECT_EQ(set_of(info, 1, 0), -1);
}

/** Commute sets as nested per-wire lists: the layout the flat
 *  CommutationInfo replaced. */
struct PerWireSets
{
    /** wire_sets[w] = ordered commute sets of wire w (gate indices). */
    std::vector<std::vector<std::vector<int>>> wire_sets;
    /** set_index[w][k] = ordinal of the set of the k-th gate on w. */
    std::vector<std::vector<int>> set_index;
    /** Gate indices on each wire, in circuit order. */
    std::vector<std::vector<int>> wire_gates;
};

/** The per-wire scan analyze_commutation() replaced: every wire walks
 *  the whole circuit, O(qubits x gates).  Kept as the reference. */
PerWireSets
reference_commutation(const QuantumCircuit &qc)
{
    PerWireSets info;
    int n = qc.num_qubits();
    info.wire_sets.resize(n);
    info.set_index.resize(n);
    info.wire_gates.resize(n);
    for (int w = 0; w < n; ++w) {
        std::vector<int> current;
        for (size_t i = 0; i < qc.size(); ++i) {
            const Gate &g = qc.gate(i);
            if (!g.acts_on(w))
                continue;
            info.wire_gates[w].push_back(static_cast<int>(i));
            bool fits = true;
            for (int j : current)
                if (!gates_commute(qc.gate(j), g))
                    fits = false;
            if (!fits) {
                info.wire_sets[w].push_back(current);
                current.clear();
            }
            current.push_back(static_cast<int>(i));
            info.set_index[w].push_back(
                static_cast<int>(info.wire_sets[w].size()));
        }
        if (!current.empty())
            info.wire_sets[w].push_back(current);
    }
    return info;
}

/** The flat analysis read back as nested per-wire lists.  A set's
 *  members are the entries carrying its ordinal, wherever they sit. */
PerWireSets
per_wire_view(const CommutationInfo &info)
{
    PerWireSets view;
    const int n = static_cast<int>(info.wire_start.size()) - 1;
    view.wire_sets.resize(n);
    view.set_index.resize(n);
    view.wire_gates.resize(n);
    for (int w = 0; w < n; ++w) {
        for (int e = info.wire_start[w]; e < info.wire_start[w + 1]; ++e) {
            const int set = info.entry_set[e];
            view.wire_gates[w].push_back(info.entry_gate[e]);
            view.set_index[w].push_back(set);
            if (set >= static_cast<int>(view.wire_sets[w].size()))
                view.wire_sets[w].resize(set + 1);
            view.wire_sets[w][set].push_back(info.entry_gate[e]);
        }
    }
    return view;
}

/** Every operand slot points at its own gate's entry on its own wire. */
void
expect_operand_slots(const QuantumCircuit &qc, const CommutationInfo &info)
{
    ASSERT_EQ(info.operand_start.size(), qc.size() + 1);
    for (std::size_t i = 0; i < qc.size(); ++i) {
        const Gate &g = qc.gate(i);
        ASSERT_EQ(info.operand_start[i + 1] - info.operand_start[i],
                  g.num_qubits());
        for (int k = 0; k < g.num_qubits(); ++k) {
            const int e = info.operand_entry[info.operand_start[i] + k];
            EXPECT_EQ(info.entry_gate[e], static_cast<int>(i));
            EXPECT_GE(e, info.wire_start[g.qubits[k]]);
            EXPECT_LT(e, info.wire_start[g.qubits[k] + 1]);
        }
    }
}

/** Random circuit on `n` wires whose gates land on only `active` of
 *  them, mixing 1q, 2q, measure and barrier gates. */
QuantumCircuit
sparse_random_circuit(std::mt19937 &rng, int n, int active, int gates)
{
    std::vector<int> wires(n);
    for (int i = 0; i < n; ++i)
        wires[i] = i;
    std::shuffle(wires.begin(), wires.end(), rng);
    wires.resize(active);
    auto pick = [&] {
        return wires[std::uniform_int_distribution<int>(0, active - 1)(rng)];
    };
    std::uniform_real_distribution<double> angle(-3.0, 3.0);
    QuantumCircuit qc(n);
    for (int k = 0; k < gates; ++k) {
        int a = pick();
        int b = pick();
        while (b == a)
            b = pick();
        switch (std::uniform_int_distribution<int>(0, 11)(rng)) {
          case 0: qc.h(a); break;
          case 1: qc.rz(angle(rng), a); break;
          case 2: qc.sx(a); break;
          case 3: qc.x(a); break;
          case 4: qc.t(a); break;
          case 5: qc.cz(a, b); break;
          case 6: qc.swap(a, b); break;
          case 7: qc.measure(a); break;
          case 8: qc.append(Gate::barrier({a, b})); break;
          default: qc.cx(a, b); break;
        }
    }
    return qc;
}

TEST(Commutation, AnalysisMatchesPerWireReferenceScan)
{
    for (unsigned seed = 1; seed <= 40; ++seed) {
        std::mt19937 rng(seed);
        const int n = 8 + static_cast<int>(seed % 5) * 15;
        const int active = 2 + static_cast<int>(seed % 6);
        QuantumCircuit qc =
            sparse_random_circuit(rng, n, active, 20 + 7 * seed);
        if (seed % 10 == 0)
            qc.barrier(); // one all-wire barrier, idle wires included
        const CommutationInfo info = analyze_commutation(qc);
        const PerWireSets got = per_wire_view(info);
        const PerWireSets want = reference_commutation(qc);
        EXPECT_EQ(got.wire_gates, want.wire_gates) << "seed " << seed;
        EXPECT_EQ(got.wire_sets, want.wire_sets) << "seed " << seed;
        EXPECT_EQ(got.set_index, want.set_index) << "seed " << seed;
        expect_operand_slots(qc, info);
    }
}

TEST(Commutation, AnalysisReusedStorageMatchesFresh)
{
    // One CommutationInfo analyzes a wide circuit, then narrower and
    // shorter ones: nothing of an earlier analysis may leak into a later.
    CommutationInfo reused;
    for (unsigned seed = 1; seed <= 12; ++seed) {
        std::mt19937 rng(seed);
        const int n = 40 - 3 * static_cast<int>(seed);
        QuantumCircuit qc =
            sparse_random_circuit(rng, n, 2 + static_cast<int>(seed % 5),
                                  200 - 15 * static_cast<int>(seed));
        analyze_commutation(qc, reused);
        const CommutationInfo fresh = analyze_commutation(qc);
        EXPECT_EQ(reused.wire_start, fresh.wire_start) << "seed " << seed;
        EXPECT_EQ(reused.entry_gate, fresh.entry_gate) << "seed " << seed;
        EXPECT_EQ(reused.entry_set, fresh.entry_set) << "seed " << seed;
        EXPECT_EQ(reused.operand_start, fresh.operand_start)
            << "seed " << seed;
        EXPECT_EQ(reused.operand_entry, fresh.operand_entry)
            << "seed " << seed;
    }
}

TEST(Commutation, AnalysisCostFollowsGatesNotWires)
{
    // 400k wires, 8k gates on 2k of them: the per-wire scan above makes
    // 3.2e9 operand checks here (tens of seconds in Release); one pass
    // over the gates touches only the wires they act on.
    std::mt19937 rng(7);
    const int n = 400000;
    QuantumCircuit qc = sparse_random_circuit(rng, n, 2000, 8000);
    const auto t0 = std::chrono::steady_clock::now();
    const CommutationInfo info = analyze_commutation(qc);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_LT(secs, 3.0);

    std::size_t expected = 0;
    for (const Gate &g : qc.gates())
        expected += g.qubits.size();
    EXPECT_EQ(info.entry_gate.size(), expected);
    EXPECT_EQ(static_cast<std::size_t>(info.wire_start[n]), expected);
    EXPECT_EQ(info.wire_start.size(), static_cast<std::size_t>(n) + 1);
}

// ---- cancellation -----------------------------------------------------------

TEST(Cancellation, AdjacentCxPair)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.cx(0, 1);
    EXPECT_EQ(run_commutative_cancellation(qc), 2);
    EXPECT_EQ(qc.size(), 0u);
}

TEST(Cancellation, ThroughCommutingCx)
{
    // Paper Fig. 4: cx(0,2) cx(1,2) cx(0,2) -> cx(1,2).
    QuantumCircuit qc(3);
    qc.cx(0, 2);
    qc.cx(1, 2);
    qc.cx(0, 2);
    QuantumCircuit before = qc;
    run_commutative_cancellation(qc);
    EXPECT_EQ(qc.cx_count(), 1);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Cancellation, BlockedByHadamard)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.h(1);
    qc.cx(0, 1);
    run_commutative_cancellation(qc);
    EXPECT_EQ(qc.cx_count(), 2);
}

TEST(Cancellation, NotBlockedByRzOnControl)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.rz(0.4, 0);
    qc.cx(0, 1);
    QuantumCircuit before = qc;
    run_commutative_cancellation(qc);
    EXPECT_EQ(qc.cx_count(), 0);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Cancellation, MergesZRotations)
{
    QuantumCircuit qc(1);
    qc.t(0);
    qc.s(0);
    qc.rz(0.25, 0);
    QuantumCircuit before = qc;
    run_commutative_cancellation(qc);
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).kind, OpKind::kRZ);
    EXPECT_NEAR(qc.gate(0).params[0], M_PI / 4 + M_PI / 2 + 0.25, 1e-12);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Cancellation, MergesZRotationsAcrossControl)
{
    // rz . cx . rz(-) on the control wire merges to nothing.
    QuantumCircuit qc(2);
    qc.rz(0.8, 0);
    qc.cx(0, 1);
    qc.rz(-0.8, 0);
    QuantumCircuit before = qc;
    run_commutative_cancellation(qc);
    EXPECT_EQ(qc.size(), 1u);
    EXPECT_TRUE(circuits_equivalent(before, qc));
}

TEST(Cancellation, HadamardPairThroughNothing)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.h(0);
    run_commutative_cancellation(qc);
    EXPECT_EQ(qc.size(), 0u);
}

TEST(Cancellation, PreservesSemanticsRandom)
{
    std::mt19937 rng(5);
    std::uniform_int_distribution<int> qd(0, 3), kd(0, 6);
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc(4);
        for (int i = 0; i < 40; ++i) {
            switch (kd(rng)) {
              case 0: qc.h(qd(rng)); break;
              case 1: qc.t(qd(rng)); break;
              case 2: qc.z(qd(rng)); break;
              case 3: qc.rz(ang(rng), qd(rng)); break;
              default: {
                int a = qd(rng), b = qd(rng);
                if (a == b)
                    b = (b + 1) % 4;
                qc.cx(a, b);
              }
            }
        }
        QuantumCircuit before = qc;
        run_commutative_cancellation_to_fixpoint(qc);
        EXPECT_TRUE(circuits_equivalent(before, qc)) << trial;
        EXPECT_LE(qc.size(), before.size());
    }
}

TEST(Cancellation, FixpointCascadesThroughARemovedPair)
{
    // The x pair sits in different sets until the cx pair between them
    // is gone, so only a second round can cancel it.
    QuantumCircuit qc(2);
    qc.x(0);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.x(0);
    QuantumCircuit once = qc;
    EXPECT_EQ(run_commutative_cancellation(once), 2);
    EXPECT_EQ(once.size(), 2u);
    EXPECT_EQ(run_commutative_cancellation_to_fixpoint(qc), 4);
    EXPECT_EQ(qc.size(), 0u);
}

TEST(Cancellation, CostFollowsGatesNotWires)
{
    // The circuit of AnalysisCostFollowsGatesNotWires, through the whole
    // fixpoint: each round may touch a wire O(1) times, never scan the
    // circuit per wire.
    std::mt19937 rng(7);
    const int n = 400000;
    QuantumCircuit qc = sparse_random_circuit(rng, n, 2000, 8000);
    const std::size_t before = qc.size();
    const auto t0 = std::chrono::steady_clock::now();
    const int removed = run_commutative_cancellation_to_fixpoint(qc);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_LT(secs, 3.0);
    EXPECT_GT(removed, 0);
    EXPECT_EQ(qc.size() + static_cast<std::size_t>(removed), before);
    EXPECT_EQ(qc.num_qubits(), n);
}

// ---- swap decomposition -----------------------------------------------------

TEST(DecomposeSwaps, FixedTemplate)
{
    QuantumCircuit qc(2);
    qc.swap(0, 1);
    decompose_swaps(qc, false);
    ASSERT_EQ(qc.size(), 3u);
    EXPECT_EQ(qc.gate(0).qubits, std::vector<int>({0, 1}));
    EXPECT_EQ(qc.gate(1).qubits, std::vector<int>({1, 0}));
    EXPECT_EQ(qc.gate(2).qubits, std::vector<int>({0, 1}));
    QuantumCircuit sw(2);
    sw.swap(0, 1);
    EXPECT_TRUE(circuits_equivalent(sw, qc));
}

TEST(DecomposeSwaps, OrientationAware)
{
    QuantumCircuit qc(2);
    Gate sw = Gate::two_q(OpKind::kSwap, 0, 1);
    sw.swap_orient = SwapOrient::kSecond;
    qc.append(sw);
    decompose_swaps(qc, true);
    // First CNOT control must be operand 1.
    EXPECT_EQ(qc.gate(0).qubits, std::vector<int>({1, 0}));
    QuantumCircuit ref(2);
    ref.swap(0, 1);
    EXPECT_TRUE(circuits_equivalent(ref, qc));
}

TEST(DecomposeSwaps, FlagIgnoredWhenNotAware)
{
    QuantumCircuit qc(2);
    Gate sw = Gate::two_q(OpKind::kSwap, 0, 1);
    sw.swap_orient = SwapOrient::kSecond;
    qc.append(sw);
    decompose_swaps(qc, false);
    EXPECT_EQ(qc.gate(0).qubits, std::vector<int>({0, 1}));
}

TEST(DecomposeSwaps, EnablesPaperCancellation)
{
    // cx(1,0) . swap(0,1) with the right orientation cancels down to
    // 2 CNOTs after commutative cancellation (paper Fig. 7).
    QuantumCircuit qc(2);
    qc.cx(1, 0);
    Gate sw = Gate::two_q(OpKind::kSwap, 0, 1);
    sw.swap_orient = SwapOrient::kSecond; // first CNOT control = wire 1
    qc.append(sw);
    QuantumCircuit before = qc;
    decompose_swaps(qc, true);
    run_commutative_cancellation_to_fixpoint(qc);
    EXPECT_EQ(qc.cx_count(), 2);

    // The fixed orientation misses it.
    QuantumCircuit qc2(2);
    qc2.cx(1, 0);
    qc2.swap(0, 1);
    decompose_swaps(qc2, false);
    run_commutative_cancellation_to_fixpoint(qc2);
    EXPECT_EQ(qc2.cx_count(), 4);
}

TEST(Optimize1qPass, CollapsesInterleavedRuns)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.t(0);
    qc.h(0);
    qc.cx(0, 1);
    qc.s(1);
    qc.sdg(1);
    QuantumCircuit before = qc;
    run_optimize_1q(qc, Basis1q::kZsx);
    EXPECT_TRUE(circuits_equivalent(before, qc));
    EXPECT_EQ(qc.cx_count(), 1);
    // s(1) sdg(1) must vanish entirely.
    for (const Gate &g : qc.gates())
        EXPECT_NE(g.qubits[0] == 1 && g.num_qubits() == 1, true);
}

} // namespace
} // namespace nassc
