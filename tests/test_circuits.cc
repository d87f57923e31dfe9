// Tests for the benchmark circuit generators.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/sim/noise.h"
#include "nassc/sim/statevector.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

TEST(Grover, AmplifiesAllOnes)
{
    for (int n : {3, 4}) {
        QuantumCircuit qc = grover(n);
        Statevector sv(n);
        sv.apply_circuit(qc);
        uint64_t marked = (uint64_t(1) << n) - 1;
        EXPECT_EQ(sv.argmax(), marked) << n;
        EXPECT_GT(sv.probability(marked), 0.5) << n;
    }
}

TEST(Grover, SizesScaleWithIterations)
{
    EXPECT_GT(grover(4, 2).size(), grover(4, 1).size());
}

TEST(Vqe, ExactPaperCxCounts)
{
    // reps * n(n-1)/2 CNOTs: the paper's Table I original counts.
    EXPECT_EQ(vqe_full(8).cx_count(), 84);
    EXPECT_EQ(vqe_full(12).cx_count(), 198);
}

TEST(Bv, RecoversSecret)
{
    for (uint64_t secret : {0b1ull, 0b1011ull, 0b1111ull}) {
        QuantumCircuit qc = bernstein_vazirani(5, secret);
        Statevector sv(5);
        sv.apply_circuit(qc);
        EXPECT_EQ(sv.argmax() & 0b1111, secret);
        EXPECT_GT(sv.probability(sv.argmax()), 0.99);
    }
}

TEST(Bv, PaperCxCount)
{
    EXPECT_EQ(
        bernstein_vazirani(19, (uint64_t(1) << 18) - 1).cx_count(), 18);
}

TEST(Qft, MapsBasisToFourierState)
{
    // QFT|0> = uniform superposition with zero phases.
    QuantumCircuit qc = qft(4);
    Statevector sv(4);
    sv.apply_circuit(qc);
    for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(sv.probability(i), 1.0 / 16.0, 1e-10);
}

TEST(Qft, CpCountMatchesPaperScale)
{
    EXPECT_EQ(qft(15).count(OpKind::kCP), 105); // 210 CX after translation
    EXPECT_EQ(qft(20).count(OpKind::kCP), 190);
}

TEST(Qpe, EstimatesPhase)
{
    // phase = 2*pi*(5/16): counting register (4 bits) must read 5
    // exactly (the phase is exactly representable).
    QuantumCircuit qc = qpe(5, 2.0 * M_PI * 5.0 / 16.0);
    Statevector sv(5);
    sv.apply_circuit(qc);
    uint64_t out = sv.argmax();
    EXPECT_GT(sv.probability(out), 0.99);
    EXPECT_EQ(out & 0xF, 5u);
    EXPECT_EQ((out >> 4) & 1, 1u);
}

TEST(Adder, AddsClassically)
{
    // 2-bit Cuccaro adder: set a=1, b=1 -> b must become 2 (a preserved).
    QuantumCircuit prep(6);
    prep.x(0); // a bit0
    prep.x(2); // b bit0
    prep.compose(cuccaro_adder(2));
    Statevector sv(6);
    sv.apply_circuit(prep);
    uint64_t out = sv.argmax();
    EXPECT_GT(sv.probability(out), 0.999);
    uint64_t a = out & 0b11;
    uint64_t b = (out >> 2) & 0b11;
    uint64_t carry_out = (out >> 5) & 1;
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(carry_out, 0u);
}

TEST(Adder, CarryPropagates)
{
    // a=3, b=3 on 2 bits: b = 6 mod 4 = 2 with carry-out 1.
    QuantumCircuit prep(6);
    prep.x(0);
    prep.x(1);
    prep.x(2);
    prep.x(3);
    prep.compose(cuccaro_adder(2));
    Statevector sv(6);
    sv.apply_circuit(prep);
    uint64_t out = sv.argmax();
    EXPECT_EQ((out >> 2) & 0b11, 2u);
    EXPECT_EQ((out >> 5) & 1, 1u);
}

TEST(Adder, PaperQubitAndCxScale)
{
    QuantumCircuit qc = cuccaro_adder(4);
    EXPECT_EQ(qc.num_qubits(), 10);
}

TEST(Multiplier, ComputesProduct)
{
    // 2-bit multiplier: a=3, b=1 (x gates set a=11b, b=01b... the
    // generator fixes a=all-ones, b has bit0 and top bit).
    QuantumCircuit qc = multiplier(2);
    EXPECT_EQ(qc.num_qubits(), 9);
    Statevector sv(9);
    sv.apply_circuit(qc);
    uint64_t out = sv.argmax();
    EXPECT_GT(sv.probability(out), 0.999);
    uint64_t a = out & 0b11;
    uint64_t b = (out >> 2) & 0b11;
    uint64_t p = (out >> 4) & 0b1111;
    EXPECT_EQ(p, a * b);
}

TEST(MctNetwork, DeterministicAndClassical)
{
    QuantumCircuit a = mct_network(6, 30, 7, 2, 4);
    QuantumCircuit b = mct_network(6, 30, 7, 2, 4);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a.gate(i) == b.gate(i));
    // Classical reversible: a basis state maps to a basis state.
    Statevector sv(6);
    sv.apply_circuit(a);
    EXPECT_GT(sv.probability(sv.argmax()), 0.999);
}

TEST(RevlibSubstitutes, DeterministicOutputs)
{
    for (auto &bc : fig11_benchmarks()) {
        Statevector sv(bc.circuit.num_qubits());
        sv.apply_circuit(bc.circuit);
        // grover_n4 has a dominant peak; the others are deterministic.
        double p = sv.probability(ideal_outcome(bc.circuit));
        if (bc.name == "grover_n4")
            EXPECT_GT(p, 0.4) << bc.name;
        else
            EXPECT_GT(p, 0.999) << bc.name;
    }
}

TEST(Registry, TableBenchmarksComplete)
{
    auto cases = table_benchmarks();
    ASSERT_EQ(cases.size(), 15u);
    EXPECT_EQ(cases[0].name, "grover_n4");
    EXPECT_EQ(cases[14].name, "sym9_193");
    // Qubit counts match the paper's Table I.
    int expected[] = {4, 6, 8, 8, 12, 19, 15, 20, 9, 10, 25, 10, 12, 15, 11};
    for (size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(cases[i].circuit.num_qubits(), expected[i])
            << cases[i].name;
}

TEST(Registry, LookupByName)
{
    EXPECT_EQ(benchmark_by_name("qft_n15").num_qubits(), 15);
    EXPECT_THROW(benchmark_by_name("nope"), std::invalid_argument);
}

TEST(NewCircuits, GhzStructure)
{
    QuantumCircuit qc = ghz(5);
    EXPECT_EQ(qc.cx_count(), 4);
    EXPECT_EQ(qc.depth(), 5);
}

TEST(NewCircuits, QaoaDeterministicAndRzzHeavy)
{
    QuantumCircuit a = qaoa_maxcut(8, 2, 3);
    QuantumCircuit b = qaoa_maxcut(8, 2, 3);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.count(OpKind::kRZZ), 10);
}

TEST(NewCircuits, VqeLinearCheaperThanFull)
{
    EXPECT_LT(vqe_linear(8).cx_count(), vqe_full(8).cx_count());
}

TEST(NewCircuits, RandomSu4Transpiles)
{
    Backend dev = linear_backend(6);
    QuantumCircuit logical = random_su4_circuit(5, 2, 11);
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    EXPECT_TRUE(verify_transpilation(logical, res));
}

} // namespace
} // namespace nassc
