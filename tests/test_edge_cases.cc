// Error-path and boundary-condition tests across modules: the places a
// downstream user will hit first when they hold the API wrong.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/math/weyl.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/sim/noise.h"
#include "nassc/sim/statevector.h"
#include "nassc/sim/unitary.h"
#include "nassc/synth/mct.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

// ---- construction errors ------------------------------------------------------

TEST(EdgeCases, CircuitRejectsNegativeRegister)
{
    EXPECT_THROW(QuantumCircuit(-1), std::invalid_argument);
}

TEST(EdgeCases, ComposeRejectsBiggerRegister)
{
    QuantumCircuit small(2), big(3);
    big.h(2);
    EXPECT_THROW(small.compose(big), std::invalid_argument);
}

TEST(EdgeCases, TranspileRejectsOversizedCircuit)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(5);
    TranspileOptions opts;
    EXPECT_THROW(transpile(qc, dev, opts), std::invalid_argument);
}

TEST(EdgeCases, StatevectorRejectsHugeRegister)
{
    EXPECT_THROW(Statevector(27), std::invalid_argument);
}

// ---- degenerate circuits ------------------------------------------------------

TEST(EdgeCases, TranspileEmptyCircuit)
{
    Backend dev = linear_backend(4);
    QuantumCircuit qc(3);
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_EQ(res.cx_total, 0);
    EXPECT_EQ(res.depth, 0);
}

TEST(EdgeCases, TranspileMeasureOnlyCircuit)
{
    Backend dev = linear_backend(4);
    QuantumCircuit qc(2);
    qc.measure_all();
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_EQ(res.circuit.count(OpKind::kMeasure), 2);
}

TEST(EdgeCases, SingleQubitDevice)
{
    Backend dev = linear_backend(1);
    QuantumCircuit qc(1);
    qc.h(0);
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_TRUE(is_basis_circuit(res.circuit));
    EXPECT_EQ(res.routing_stats.num_swaps, 0);
}

TEST(EdgeCases, BarrierOnlyCircuit)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(3);
    qc.barrier();
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_EQ(res.circuit.count(OpKind::kBarrier), 1);
}

// ---- qasm error paths ----------------------------------------------------------

TEST(EdgeCases, QasmMissingRegister)
{
    EXPECT_THROW(from_qasm("h q[0];"), std::runtime_error);
}

TEST(EdgeCases, QasmMalformedExpression)
{
    EXPECT_THROW(from_qasm("qreg q[1]; rz(pi*) q[0];"), std::runtime_error);
    EXPECT_THROW(from_qasm("qreg q[1]; rz(frob) q[0];"), std::runtime_error);
    EXPECT_THROW(from_qasm("qreg q[1]; rz((1+2) q[0];"), std::runtime_error);
}

TEST(EdgeCases, QasmWholeRegisterOperandUnsupported)
{
    EXPECT_THROW(from_qasm("qreg q[2]; h q;"), std::runtime_error);
}

TEST(EdgeCases, QasmBadIndexOrSizeNamesTheStatement)
{
    // Non-numeric or overflowing indices and sizes used to escape as a
    // bare std::invalid_argument("stoi") or std::out_of_range, and a
    // negative size as a register that shrank the next one's offset.
    const std::pair<const char *, const char *> cases[] = {
        {"qreg q[2]; h q[x];", "h q[x]"},
        {"qreg q[2]; h q[1x];", "h q[1x]"},
        {"qreg q[2]; h q[99999999999];", "h q[99999999999]"},
        {"qreg q[2]; cx q[0], q[];", "cx q[0], q[]"},
        {"qreg q[x];", "qreg q[x]"},
        {"qreg q[99999999999];", "qreg q[99999999999]"},
        {"qreg q[-1]; qreg r[3];", "qreg q[-1]"},
        {"qreg q[2147483647]; qreg r[1];", "qreg r[1]"},
    };
    for (const auto &[text, stmt] : cases) {
        try {
            from_qasm(text);
            ADD_FAILURE() << text << " parsed";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("'") + stmt + "'"),
                      std::string::npos)
                << what;
        }
    }
    // Blanks and a sign around the digits are still an index.
    EXPECT_EQ(from_qasm("qreg q[ 3 ]; h q[ +2 ];").gate(0).qubits[0], 2);
}

TEST(EdgeCases, QasmEmptyInputGivesEmptyCircuit)
{
    QuantumCircuit qc = from_qasm("OPENQASM 2.0;\n");
    EXPECT_EQ(qc.num_qubits(), 0);
    EXPECT_EQ(qc.size(), 0u);
}

// ---- numerical boundaries -------------------------------------------------------

TEST(EdgeCases, KakAtChamberCorners)
{
    // Exact chamber corners: identity, CX class, iSWAP class, SWAP class,
    // B-gate (pi/4, pi/8, 0) and the chiral midpoint (pi/8, pi/8, pi/8).
    const double pi4 = M_PI / 4.0, pi8 = M_PI / 8.0;
    struct
    {
        double a, b, c;
        int cost;
    } cases[] = {
        {0, 0, 0, 0},          {pi4, 0, 0, 1},   {pi4, pi4, 0, 2},
        {pi4, pi4, pi4, 3},    {pi4, pi8, 0, 2}, {pi8, pi8, pi8, 3},
        {pi4, pi4, -pi4 + 1e-3, 3},
    };
    for (auto &cs : cases) {
        Mat4 u = canonical_gate(cs.a, cs.b, cs.c);
        EXPECT_EQ(cnot_cost(u), cs.cost)
            << cs.a << "," << cs.b << "," << cs.c;
        Kak k = kak_decompose(u);
        canonicalize(k);
        EXPECT_LT(frobenius_distance(u, kak_reconstruct(k)), 1e-6);
    }
}

TEST(EdgeCases, KakNearBoundaryPerturbations)
{
    // Tiny perturbations off chamber corners must not destabilize the
    // decomposition.
    std::mt19937 rng(4);
    std::uniform_real_distribution<double> eps(-1e-9, 1e-9);
    const double pi4 = M_PI / 4.0;
    for (int trial = 0; trial < 25; ++trial) {
        Mat4 u = canonical_gate(pi4 + eps(rng), eps(rng), eps(rng));
        Kak k = kak_decompose(u);
        canonicalize(k);
        EXPECT_LT(frobenius_distance(u, kak_reconstruct(k)), 1e-6);
        EXPECT_EQ(cnot_cost_coords(k.a, k.b, k.c), 1);
    }
}

TEST(EdgeCases, RzAnglePeriodicity)
{
    // rz(theta + 4pi) == rz(theta) exactly; 2pi differs by global phase
    // only, which synthesis treats as equal.
    QuantumCircuit a(1), b(1);
    a.rz(0.5, 0);
    b.rz(0.5 + 4.0 * M_PI, 0);
    EXPECT_TRUE(circuits_equivalent(a, b));
}

TEST(EdgeCases, NoiseModelZeroTrialGuard)
{
    Backend dev = linear_backend(3);
    NoiseModel nm = NoiseModel::from_backend(dev);
    QuantumCircuit qc(3);
    qc.h(0);
    SuccessRate sr = monte_carlo_success(qc, nm, {0, 1, 2}, 0, 1);
    EXPECT_EQ(sr.trials, 1);
}

TEST(EdgeCases, CalibrationRejectsUnknownEdge)
{
    Backend dev = linear_backend(4);
    EXPECT_THROW(dev.calibration.cx_error(0, 3), std::out_of_range);
}

TEST(EdgeCases, MctNoControlsIsX)
{
    auto gates = decompose_mcx({}, 2, 4);
    ASSERT_EQ(gates.size(), 1u);
    EXPECT_EQ(gates[0].kind, OpKind::kX);
}

} // namespace
} // namespace nassc
