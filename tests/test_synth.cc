// Tests for 1-qubit Euler synthesis, 2-qubit KAK synthesis templates and
// the multi-controlled-X decompositions.

#include <cmath>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "nassc/ir/matrices.h"
#include "nassc/math/weyl.h"
#include "nassc/sim/statevector.h"
#include "nassc/sim/unitary.h"
#include "nassc/synth/euler1q.h"
#include "nassc/synth/kak2q.h"
#include "nassc/synth/mct.h"

namespace nassc {
namespace {

std::mt19937 &
rng()
{
    static std::mt19937 r(777);
    return r;
}

Mat2
random_u2()
{
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    Mat2 m = mul(rz_gate(ang(rng())),
                 mul(ry_gate(ang(rng())), rz_gate(ang(rng()))));
    return scale(m, std::exp(Cx(0.0, ang(rng()))));
}

Mat4
random_u4_with_cx(int n_cx)
{
    auto su2 = [] {
        std::uniform_real_distribution<double> ang(-M_PI, M_PI);
        return mul(rz_gate(ang(rng())),
                   mul(ry_gate(ang(rng())), rz_gate(ang(rng()))));
    };
    Mat4 u = tensor2(su2(), su2());
    std::uniform_int_distribution<int> dir(0, 1);
    for (int k = 0; k < n_cx; ++k) {
        u = mul(dir(rng()) ? cx_mat() : cx_rev_mat(), u);
        u = mul(tensor2(su2(), su2()), u);
    }
    return u;
}

/** Multiply out a gate list over the pair (0, 1). */
Mat4
matrix_of(const std::vector<Gate> &gates)
{
    return unitary_of_2q_gates(gates, 0, 1);
}

Mat2
matrix_of_1q(const std::vector<Gate> &gates, int q)
{
    Mat2 m = Mat2::identity();
    for (const Gate &g : gates) {
        EXPECT_EQ(g.qubits[0], q);
        m = mul(gate_matrix1(g), m);
    }
    return m;
}

// ---- 1q synthesis -----------------------------------------------------------

TEST(Synth1q, IdentityGivesEmpty)
{
    EXPECT_TRUE(synth_1q(Mat2::identity(), 0, Basis1q::kZsx).empty());
    EXPECT_TRUE(synth_1q(scale(Mat2::identity(), std::exp(Cx(0.0, 0.4))), 0,
                         Basis1q::kZsx)
                    .empty());
    EXPECT_TRUE(synth_1q(Mat2::identity(), 0, Basis1q::kUGate).empty());
}

TEST(Synth1q, DiagonalGivesSingleRz)
{
    auto gates = synth_1q(rz_gate(0.8), 3, Basis1q::kZsx);
    ASSERT_EQ(gates.size(), 1u);
    EXPECT_EQ(gates[0].kind, OpKind::kRZ);
    EXPECT_EQ(gates[0].qubits[0], 3);
    EXPECT_TRUE(equal_up_to_phase(matrix_of_1q(gates, 3), rz_gate(0.8)));
}

TEST(Synth1q, HadamardUsesOneSx)
{
    auto gates = synth_1q(hadamard(), 0, Basis1q::kZsx);
    int sx = 0;
    for (const Gate &g : gates)
        if (g.kind == OpKind::kSX)
            ++sx;
    EXPECT_EQ(sx, 1);
    EXPECT_TRUE(equal_up_to_phase(matrix_of_1q(gates, 0), hadamard(), 1e-9));
}

TEST(Synth1q, PauliXIsShortForm)
{
    auto gates = synth_1q(pauli_x(), 0, Basis1q::kZsx);
    ASSERT_LE(gates.size(), 2u);
    EXPECT_TRUE(equal_up_to_phase(matrix_of_1q(gates, 0), pauli_x(), 1e-9));
}

class Synth1qRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(Synth1qRandom, ZsxRoundTrip)
{
    for (int trial = 0; trial < 40; ++trial) {
        Mat2 u = random_u2();
        auto gates = synth_1q(u, 0, Basis1q::kZsx);
        EXPECT_LE(gates.size(), 5u);
        EXPECT_TRUE(equal_up_to_phase(matrix_of_1q(gates, 0), u, 1e-8));
    }
}

TEST_P(Synth1qRandom, UGateRoundTrip)
{
    for (int trial = 0; trial < 40; ++trial) {
        Mat2 u = random_u2();
        auto gates = synth_1q(u, 0, Basis1q::kUGate);
        ASSERT_EQ(gates.size(), 1u);
        EXPECT_TRUE(equal_up_to_phase(matrix_of_1q(gates, 0), u, 1e-8));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Synth1qRandom, ::testing::Values(0, 1, 2));

TEST(Synth1q, SpecialThetaValues)
{
    // Exercise the theta = 0 / pi/2 / pi template branches.
    for (double phi : {0.0, 0.3, -2.0}) {
        for (double lam : {0.0, 1.1, -0.7}) {
            for (double theta : {0.0, M_PI / 2.0, M_PI}) {
                Mat2 u = u3_gate(theta, phi, lam);
                auto gates = synth_1q(u, 0, Basis1q::kZsx);
                EXPECT_TRUE(
                    equal_up_to_phase(matrix_of_1q(gates, 0), u, 1e-8))
                    << "theta=" << theta << " phi=" << phi << " lam=" << lam;
                EXPECT_LE(gates.size(), 3u);
            }
        }
    }
}

TEST(Optimize1qRuns, MergesRuns)
{
    std::vector<Gate> gates;
    gates.push_back(Gate::one_q(OpKind::kH, 0));
    gates.push_back(Gate::one_q(OpKind::kH, 0));
    gates.push_back(Gate::one_q(OpKind::kT, 1));
    gates.push_back(Gate::one_q(OpKind::kTdg, 1));
    int removed = optimize_1q_runs(gates, 2, Basis1q::kZsx);
    EXPECT_EQ(removed, 4);
    EXPECT_TRUE(gates.empty());
}

TEST(Optimize1qRuns, RespectsTwoQubitBarriers)
{
    // h - cx - h on the same wire must NOT merge across the cx.
    std::vector<Gate> gates;
    gates.push_back(Gate::one_q(OpKind::kH, 0));
    gates.push_back(Gate::two_q(OpKind::kCX, 0, 1));
    gates.push_back(Gate::one_q(OpKind::kH, 0));
    QuantumCircuit before(2);
    for (const Gate &g : gates)
        before.append(g);
    optimize_1q_runs(gates, 2, Basis1q::kZsx);
    QuantumCircuit after(2);
    for (const Gate &g : gates)
        after.append(g);
    EXPECT_TRUE(circuits_equivalent(before, after));
    // The cx must still be there.
    int cx = 0;
    for (const Gate &g : gates)
        if (g.kind == OpKind::kCX)
            ++cx;
    EXPECT_EQ(cx, 1);
}

// ---- 2q KAK synthesis ------------------------------------------------------

class Kak2qSynth : public ::testing::TestWithParam<int>
{
};

TEST_P(Kak2qSynth, RoundTripWithMinimalCx)
{
    int n_cx = GetParam();
    for (int trial = 0; trial < 40; ++trial) {
        Mat4 u = random_u4_with_cx(n_cx);
        auto gates = synth_2q_kak(u, 0, 1, Basis1q::kUGate);
        int cx = 0;
        for (const Gate &g : gates)
            if (g.kind == OpKind::kCX)
                ++cx;
        EXPECT_EQ(cx, n_cx);
        EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), u, 1e-6))
            << "n_cx=" << n_cx << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(CxCounts, Kak2qSynth, ::testing::Values(0, 1, 2, 3));

TEST(Kak2qSynthKnown, Cx)
{
    auto gates = synth_2q_kak(cx_mat(), 0, 1);
    EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), cx_mat(), 1e-7));
}

TEST(Kak2qSynthKnown, ReversedCx)
{
    auto gates = synth_2q_kak(cx_rev_mat(), 0, 1);
    int cx = 0;
    for (const Gate &g : gates)
        if (g.kind == OpKind::kCX)
            ++cx;
    EXPECT_EQ(cx, 1);
    EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), cx_rev_mat(), 1e-7));
}

TEST(Kak2qSynthKnown, Swap)
{
    auto gates = synth_2q_kak(swap_mat(), 0, 1);
    EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), swap_mat(), 1e-7));
}

TEST(Kak2qSynthKnown, SwapTimesCxNeedsTwo)
{
    // The paper's motivating observation.
    Mat4 u = mul(swap_mat(), cx_mat());
    auto gates = synth_2q_kak(u, 0, 1);
    int cx = 0;
    for (const Gate &g : gates)
        if (g.kind == OpKind::kCX)
            ++cx;
    EXPECT_EQ(cx, 2);
    EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), u, 1e-7));
}

TEST(Kak2qSynthKnown, CanonicalGateGrid)
{
    // Sweep canonical coordinates across the chamber.
    for (double a : {0.0, 0.2, M_PI / 4.0})
        for (double b : {0.0, 0.15, 0.2})
            for (double c : {-0.1, 0.0, 0.1}) {
                if (b > a || std::abs(c) > b)
                    continue;
                Mat4 u = canonical_gate(a, b, c);
                auto gates = synth_2q_kak(u, 0, 1);
                EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), u, 1e-6))
                    << a << " " << b << " " << c;
            }
}

TEST(Kak2qSynthKnown, ZsxBasisOutput)
{
    for (int trial = 0; trial < 10; ++trial) {
        Mat4 u = random_u4_with_cx(3);
        auto gates = synth_2q_kak(u, 0, 1, Basis1q::kZsx);
        for (const Gate &g : gates) {
            bool ok = g.kind == OpKind::kCX || g.kind == OpKind::kRZ ||
                      g.kind == OpKind::kSX || g.kind == OpKind::kX;
            EXPECT_TRUE(ok) << op_name(g.kind);
        }
        EXPECT_TRUE(equal_up_to_phase(matrix_of(gates), u, 1e-6));
    }
}

TEST(Kak2qSynth, ArbitraryQubitIndices)
{
    Mat4 u = random_u4_with_cx(2);
    auto gates = synth_2q_kak(u, 4, 2, Basis1q::kUGate);
    EXPECT_TRUE(equal_up_to_phase(unitary_of_2q_gates(gates, 4, 2), u, 1e-6));
}

TEST(Kak2qSynth, AnyPairIsTheTwoWireSynthesisRelabelled)
{
    // What the block memo and the heavy-hex translation rely on: the
    // gates on (q0, q1) are the ones on (0, 1) — or (1, 0) when q0 > q1
    // — relabelled, bit for bit, however far apart the wires are.
    for (int trial = 0; trial < 8; ++trial) {
        const Mat4 u = random_u4_with_cx(trial % 4);
        for (Basis1q basis : {Basis1q::kUGate, Basis1q::kZsx}) {
            for (auto [q0, q1] : {std::pair{4242, 17}, std::pair{17, 4242},
                                  std::pair{2, 4}, std::pair{4, 2}}) {
                const std::vector<Gate> got = synth_2q_kak(u, q0, q1, basis);
                std::vector<Gate> want =
                    q0 < q1 ? synth_2q_kak(u, 0, 1, basis)
                            : synth_2q_kak(u, 1, 0, basis);
                for (Gate &g : want)
                    for (int &q : g.qubits)
                        q = (q == 0) == (q0 < q1) ? q0 : q1;
                EXPECT_TRUE(got == want) << q0 << "," << q1;
                // The trailing runs come out in ascending wire order, as
                // a merge over the whole register leaves them.
                std::size_t tail = got.size();
                while (tail > 0 && got[tail - 1].num_qubits() == 1)
                    --tail;
                for (std::size_t i = tail + 1; i < got.size(); ++i)
                    EXPECT_LE(got[i - 1].qubits[0], got[i].qubits[0])
                        << q0 << "," << q1;
                EXPECT_TRUE(equal_up_to_phase(
                    unitary_of_2q_gates(got, q0, q1), u, 1e-6));
            }
        }
    }
}

TEST(Unitary2qGates, ReversedOperandGate)
{
    // A cx listed as (q1, q0) must fold with swapped bit roles.
    std::vector<Gate> gates = {Gate::two_q(OpKind::kCX, 1, 0)};
    EXPECT_TRUE(approx_equal(unitary_of_2q_gates(gates, 0, 1), cx_rev_mat()));
}

// ---- MCT --------------------------------------------------------------------

uint64_t
apply_classical(const std::vector<Gate> &gates, int n, uint64_t input)
{
    // Simulate through the statevector (gates may be non-classical in the
    // middle, e.g. ccz phases), then read out the peak basis state.
    Statevector sv(n);
    std::vector<Cx> &amps = sv.mutable_amplitudes();
    std::fill(amps.begin(), amps.end(), Cx(0.0, 0.0));
    amps[input] = 1.0;
    for (const Gate &g : gates)
        sv.apply(g);
    return sv.argmax();
}

TEST(Mct, CcxMatchesNative)
{
    QuantumCircuit native(3);
    native.ccx(0, 1, 2);
    QuantumCircuit dec(3);
    for (const Gate &g : decompose_ccx(0, 1, 2))
        dec.append(g);
    EXPECT_TRUE(circuits_equivalent(native, dec));
    EXPECT_EQ(dec.cx_count(), 6);
}

TEST(Mct, CczMatchesNative)
{
    QuantumCircuit native(3);
    native.ccz(0, 1, 2);
    QuantumCircuit dec(3);
    for (const Gate &g : decompose_ccz(0, 1, 2))
        dec.append(g);
    EXPECT_TRUE(circuits_equivalent(native, dec));
}

TEST(Mct, CswapMatchesNative)
{
    QuantumCircuit native(3);
    native.cswap(0, 1, 2);
    QuantumCircuit dec(3);
    for (const Gate &g : decompose_cswap(0, 1, 2))
        dec.append(g);
    EXPECT_TRUE(circuits_equivalent(native, dec));
}

class MctParam : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MctParam, TruthTable)
{
    auto [k, extra] = GetParam();
    int n = k + 1 + extra;
    std::vector<int> controls;
    for (int i = 0; i < k; ++i)
        controls.push_back(i);
    int target = k;
    auto gates = decompose_mcx(controls, target, n);

    // Every gate must stay within the register and MCX must be resolved
    // into <= 3-qubit primitives.
    for (const Gate &g : gates) {
        EXPECT_NE(g.kind, OpKind::kMCX);
        for (int q : g.qubits) {
            EXPECT_GE(q, 0);
            EXPECT_LT(q, n);
        }
    }

    uint64_t cmask = (uint64_t(1) << k) - 1;
    uint64_t tbit = uint64_t(1) << target;
    // Exhaustive truth table over control+target+ancilla bits (bounded n).
    for (uint64_t in = 0; in < (uint64_t(1) << n); ++in) {
        uint64_t expect = ((in & cmask) == cmask) ? (in ^ tbit) : in;
        EXPECT_EQ(apply_classical(gates, n, in), expect)
            << "k=" << k << " extra=" << extra << " in=" << in;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MctParam,
    ::testing::Values(std::make_tuple(3, 2), // enough dirty ancillas
                      std::make_tuple(4, 2), // v-chain
                      std::make_tuple(4, 1), // recursive split
                      std::make_tuple(5, 1), // recursive split, deeper
                      std::make_tuple(3, 0), // no ancilla at all
                      std::make_tuple(4, 0), // no ancilla, phase recursion
                      std::make_tuple(5, 0)));

TEST(Mct, McpPhaseCorrect)
{
    // mcp(lambda) applies the phase only on the all-ones state.
    int n = 4;
    double lam = 0.9;
    auto gates = decompose_mcp(lam, {0, 1, 2}, 3, n);
    QuantumCircuit qc(n);
    for (const Gate &g : gates)
        qc.append(g);
    MatN u = unitary_of_circuit(qc);
    for (int i = 0; i < (1 << n); ++i) {
        Cx expect = (i == (1 << n) - 1) ? std::exp(Cx(0.0, lam)) : Cx(1.0, 0.0);
        EXPECT_LT(std::abs(u(i, i) - expect), 1e-8) << i;
        for (int j = 0; j < (1 << n); ++j) {
            if (i != j) {
                EXPECT_LT(std::abs(u(i, j)), 1e-8);
            }
        }
    }
}

} // namespace
} // namespace nassc
