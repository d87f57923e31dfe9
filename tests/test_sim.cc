// Tests for the statevector simulator, the unitary builder, the
// noise model / Monte-Carlo success-rate protocol, and the
// transpilation verifier.

#include <stdexcept>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/sim/noise.h"
#include "nassc/sim/statevector.h"
#include "nassc/sim/unitary.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

TEST(Statevector, InitialState)
{
    Statevector sv(3);
    EXPECT_NEAR(std::abs(sv.amplitude(0) - Cx(1.0, 0.0)), 0.0, 1e-15);
    EXPECT_NEAR(sv.norm2(), 1.0, 1e-12);
}

TEST(Statevector, BellState)
{
    Statevector sv(2);
    sv.apply(Gate::one_q(OpKind::kH, 0));
    sv.apply(Gate::two_q(OpKind::kCX, 0, 1));
    EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b01), 0.0, 1e-12);
}

TEST(Statevector, GhzAndParity)
{
    int n = 5;
    Statevector sv(n);
    sv.apply(Gate::one_q(OpKind::kH, 0));
    for (int i = 1; i < n; ++i)
        sv.apply(Gate::two_q(OpKind::kCX, i - 1, i));
    EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability((1u << n) - 1), 0.5, 1e-12);
}

TEST(Statevector, CcxTruthTable)
{
    for (uint64_t in = 0; in < 8; ++in) {
        Statevector sv(3);
        std::vector<Cx> &a = sv.mutable_amplitudes();
        std::fill(a.begin(), a.end(), Cx(0, 0));
        a[in] = 1.0;
        sv.apply(Gate(OpKind::kCCX, {0, 1, 2}));
        uint64_t expect = ((in & 3) == 3) ? in ^ 4 : in;
        EXPECT_NEAR(sv.probability(expect), 1.0, 1e-12) << in;
    }
}

TEST(Statevector, CswapTruthTable)
{
    for (uint64_t in = 0; in < 8; ++in) {
        Statevector sv(3);
        std::vector<Cx> &a = sv.mutable_amplitudes();
        std::fill(a.begin(), a.end(), Cx(0, 0));
        a[in] = 1.0;
        sv.apply(Gate(OpKind::kCSwap, {0, 1, 2}));
        uint64_t expect = in;
        if (in & 1) {
            uint64_t b1 = (in >> 1) & 1, b2 = (in >> 2) & 1;
            expect = (in & 1) | (b2 << 1) | (b1 << 2);
        }
        EXPECT_NEAR(sv.probability(expect), 1.0, 1e-12) << in;
    }
}

TEST(Statevector, MctOnManyQubits)
{
    Statevector sv(6);
    std::vector<Cx> &a = sv.mutable_amplitudes();
    std::fill(a.begin(), a.end(), Cx(0, 0));
    a[0b011111] = 1.0; // all five controls set, target 0
    sv.apply(Gate::mcx({0, 1, 2, 3, 4}, 5));
    EXPECT_NEAR(sv.probability(0b111111), 1.0, 1e-12);
}

TEST(Statevector, PauliInjection)
{
    Statevector sv(1);
    sv.apply_pauli(1, 0); // X
    EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
    sv.apply_pauli(3, 0); // Z: phase only
    EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
}

TEST(Statevector, SamplingMatchesDistribution)
{
    Statevector sv(2);
    sv.apply(Gate::one_q(OpKind::kH, 0));
    std::mt19937 rng(3);
    int ones = 0;
    for (int i = 0; i < 4000; ++i)
        ones += sv.sample(rng) & 1;
    EXPECT_NEAR(ones / 4000.0, 0.5, 0.05);
}

TEST(Statevector, FidelityOfIdenticalStates)
{
    Statevector a(3), b(3);
    QuantumCircuit qc = qft(3);
    a.apply_circuit(qc);
    b.apply_circuit(qc);
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-10);
}

TEST(UnitaryBuilder, MatchesKnownMatrices)
{
    QuantumCircuit qc(1);
    qc.h(0);
    MatN u = unitary_of_circuit(qc);
    EXPECT_NEAR(std::abs(u(0, 0) - Cx(1 / std::sqrt(2.0), 0)), 0.0, 1e-12);

    QuantumCircuit c2(2);
    c2.cx(0, 1);
    MatN ucx = unitary_of_circuit(c2);
    EXPECT_NEAR(std::abs(ucx(3, 1) - Cx(1, 0)), 0.0, 1e-12);
}

TEST(UnitaryBuilder, RejectsHugeCircuits)
{
    QuantumCircuit qc(13);
    EXPECT_THROW(unitary_of_circuit(qc), std::invalid_argument);
}

TEST(EquivalentWithLayout, DetectsPermutation)
{
    // logical cx(0,1) vs physical cx on permuted wires.
    QuantumCircuit logical(2);
    logical.cx(0, 1);
    QuantumCircuit physical(3);
    physical.cx(2, 0);
    EXPECT_TRUE(equivalent_with_layout(logical, physical, {2, 0}, {2, 0}));
    EXPECT_FALSE(equivalent_with_layout(logical, physical, {0, 2}, {0, 2}));
}

TEST(EquivalentWithLayout, TracksSwapMovement)
{
    QuantumCircuit logical(2);
    logical.cx(0, 1);
    // Physical: swap wires then cx reversed, i.e. logical qubits moved.
    QuantumCircuit physical(2);
    physical.swap(0, 1);
    physical.cx(1, 0);
    EXPECT_TRUE(
        equivalent_with_layout(logical, physical, {0, 1}, {1, 0}));
}

TEST(Noise, IdealOutcomeOfDeterministicCircuits)
{
    // BV: outputs the secret on the data wires.
    QuantumCircuit bv = bernstein_vazirani(5, 0b1101);
    uint64_t out = ideal_outcome(bv);
    EXPECT_EQ(out & 0b1111, 0b1101u);

    QuantumCircuit mod5 = mod5mils_65();
    Statevector sv(5);
    sv.apply_circuit(mod5);
    EXPECT_NEAR(sv.probability(ideal_outcome(mod5)), 1.0, 1e-10);
}

TEST(Noise, ZeroNoiseGivesPerfectSuccess)
{
    Backend dev = linear_backend(5);
    // Null calibration -> zero error rates.
    for (auto &e : dev.calibration.error_cx)
        e.second = 0.0;
    for (auto &x : dev.calibration.error_1q)
        x = 0.0;
    for (auto &x : dev.calibration.readout_error)
        x = 0.0;
    NoiseModel nm = NoiseModel::from_backend(dev);

    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    SuccessRate sr = monte_carlo_success(res.circuit, nm, res.final_l2p,
                                         ideal_outcome(logical), 256);
    EXPECT_EQ(sr.hits, 256);
}

TEST(Noise, MoreNoiseLowersSuccess)
{
    Backend dev = linear_backend(5);
    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    uint64_t ideal = ideal_outcome(logical);

    NoiseModel low = NoiseModel::from_backend(dev);
    Backend noisy = dev;
    for (auto &e : noisy.calibration.error_cx)
        e.second *= 5.0;
    for (auto &x : noisy.calibration.readout_error)
        x *= 3.0;
    NoiseModel high = NoiseModel::from_backend(noisy);

    SuccessRate s_low =
        monte_carlo_success(res.circuit, low, res.final_l2p, ideal, 2048, 7);
    SuccessRate s_high =
        monte_carlo_success(res.circuit, high, res.final_l2p, ideal, 2048, 7);
    EXPECT_GT(s_low.rate, s_high.rate);
    EXPECT_GT(s_low.rate, 0.1);
}

TEST(Noise, FewerCxGivesBetterSuccessOnAverage)
{
    // A circuit with strictly more CNOTs through the same noise model
    // should not win: run identity-padded versions.
    Backend dev = linear_backend(4);
    NoiseModel nm = NoiseModel::from_backend(dev);

    QuantumCircuit lean(4);
    lean.h(0);
    lean.cx(0, 1);
    QuantumCircuit fat = lean;
    for (int i = 0; i < 10; ++i) {
        fat.cx(1, 2);
        fat.cx(1, 2);
    }
    uint64_t ideal = ideal_outcome(lean);
    SuccessRate a =
        monte_carlo_success(lean, nm, {0, 1, 2, 3}, ideal, 4096, 5);
    SuccessRate b =
        monte_carlo_success(fat, nm, {0, 1, 2, 3}, ideal, 4096, 5);
    EXPECT_GT(a.rate, b.rate);
}

TEST(Noise, NonPositiveTrialsThrow)
{
    // 0 shots would divide 0 hits by 0 trials: a NaN success rate.
    Backend dev = linear_backend(4);
    NoiseModel nm = NoiseModel::from_backend(dev);
    QuantumCircuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    EXPECT_THROW(monte_carlo_success(bell, nm, {0, 1}, 0, 0),
                 std::invalid_argument);
    EXPECT_THROW(monte_carlo_success(bell, nm, {0, 1}, 0, -5),
                 std::invalid_argument);
    EXPECT_EQ(monte_carlo_success(bell, nm, {0, 1}, 0, 1).trials, 1);
}

TEST(Noise, CompressesInactiveWires)
{
    // 27-qubit montreal register, but only a few wires touched: must not
    // throw despite the statevector limit.
    Backend dev = montreal_backend();
    NoiseModel nm = NoiseModel::from_backend(dev);
    QuantumCircuit phys(27);
    phys.h(14);
    phys.cx(14, 16);
    SuccessRate sr = monte_carlo_success(phys, nm, {14, 16}, 0, 128);
    EXPECT_GT(sr.rate, 0.0);
}

TEST(Verify, AcceptsCorrectTranspilationOnMontreal)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    EXPECT_TRUE(verify_transpilation(logical, res));
}

TEST(Verify, RejectsCorruptedResult)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    // Corrupt: flip an X on a wire holding a logical qubit.
    res.circuit.x(res.final_l2p[0]);
    EXPECT_FALSE(verify_transpilation(logical, res));
}

TEST(Verify, BothRoutersOnAllBenchSmall)
{
    Backend dev = montreal_backend();
    for (auto &bc : fig11_benchmarks()) {
        for (int r = 0; r < 2; ++r) {
            TranspileOptions opts;
            opts.router = static_cast<RoutingAlgorithm>(r);
            TranspileResult res = transpile(bc.circuit, dev, opts);
            EXPECT_TRUE(verify_transpilation(bc.circuit, res))
                << bc.name << " router=" << r;
        }
    }
}

} // namespace
} // namespace nassc
