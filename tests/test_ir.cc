// Unit tests for the circuit IR: gates, circuits, DAG, and QASM I/O.

#include <gtest/gtest.h>

#include <limits>

#include "nassc/ir/circuit.h"
#include "nassc/ir/dag.h"
#include "nassc/ir/qasm.h"
#include "nassc/sim/unitary.h"

namespace nassc {
namespace {

TEST(OpKind, NamesRoundTrip)
{
    for (int i = 0; i <= static_cast<int>(OpKind::kMeasure); ++i) {
        OpKind k = static_cast<OpKind>(i);
        auto back = op_from_name(op_name(k));
        ASSERT_TRUE(back.has_value()) << op_name(k);
        EXPECT_EQ(*back, k);
    }
}

TEST(OpKind, Aliases)
{
    EXPECT_EQ(op_from_name("u3"), OpKind::kU);
    EXPECT_EQ(op_from_name("cnot"), OpKind::kCX);
    EXPECT_EQ(op_from_name("u1"), OpKind::kP);
    EXPECT_FALSE(op_from_name("nonsense").has_value());
}

TEST(OpKind, ArityAndParams)
{
    EXPECT_EQ(op_arity(OpKind::kH), 1);
    EXPECT_EQ(op_arity(OpKind::kCX), 2);
    EXPECT_EQ(op_arity(OpKind::kCCX), 3);
    EXPECT_EQ(op_arity(OpKind::kMCX), -1);
    EXPECT_EQ(op_num_params(OpKind::kU), 3);
    EXPECT_EQ(op_num_params(OpKind::kRZ), 1);
    EXPECT_EQ(op_num_params(OpKind::kCX), 0);
}

TEST(Gate, ValidatesOperands)
{
    EXPECT_THROW(Gate(OpKind::kCX, {0}), std::invalid_argument);
    EXPECT_THROW(Gate(OpKind::kCX, {0, 0}), std::invalid_argument);
    EXPECT_THROW(Gate(OpKind::kRZ, {0}), std::invalid_argument); // no param
    EXPECT_NO_THROW(Gate(OpKind::kRZ, {0}, {0.5}));
}

TEST(Gate, InverseOfParametrized)
{
    Gate rz = Gate::one_q(OpKind::kRZ, 2, 0.7);
    Gate inv = rz.inverse();
    EXPECT_EQ(inv.kind, OpKind::kRZ);
    EXPECT_DOUBLE_EQ(inv.params[0], -0.7);

    Gate u = Gate::u(0, 0.1, 0.2, 0.3);
    Gate ui = u.inverse();
    EXPECT_DOUBLE_EQ(ui.params[0], -0.1);
    EXPECT_DOUBLE_EQ(ui.params[1], -0.3);
    EXPECT_DOUBLE_EQ(ui.params[2], -0.2);

    EXPECT_EQ(Gate::one_q(OpKind::kS, 0).inverse().kind, OpKind::kSdg);
    EXPECT_EQ(Gate::one_q(OpKind::kH, 0).inverse().kind, OpKind::kH);
}

TEST(Circuit, AppendValidatesRange)
{
    QuantumCircuit qc(2);
    EXPECT_THROW(qc.cx(0, 2), std::out_of_range);
    EXPECT_NO_THROW(qc.cx(0, 1));
}

TEST(Circuit, DepthSerialVsParallel)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.h(1);
    qc.h(2);
    EXPECT_EQ(qc.depth(), 1); // all parallel
    qc.cx(0, 1);
    EXPECT_EQ(qc.depth(), 2);
    qc.cx(1, 2);
    EXPECT_EQ(qc.depth(), 3);
    qc.x(0);
    EXPECT_EQ(qc.depth(), 3); // fits beside cx(1,2)
}

TEST(Circuit, CountOps)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 0);
    auto counts = qc.count_ops();
    EXPECT_EQ(counts["h"], 1);
    EXPECT_EQ(counts["cx"], 2);
    EXPECT_EQ(qc.cx_count(), 2);
    EXPECT_EQ(qc.count_2q(), 2);
}

TEST(Circuit, InverseIsInverse)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.t(1);
    qc.cx(0, 1);
    qc.rz(0.3, 2);
    qc.ccx(0, 1, 2);
    QuantumCircuit id(3);
    id.compose(qc);
    id.compose(qc.inverse());
    MatN u = unitary_of_circuit(id);
    EXPECT_TRUE(equal_up_to_phase(u, MatN::identity(8)));
}

TEST(Circuit, InverseReversesOrder)
{
    QuantumCircuit qc(1);
    qc.s(0);
    qc.t(0);
    QuantumCircuit inv = qc.inverse();
    EXPECT_EQ(inv.gate(0).kind, OpKind::kTdg);
    EXPECT_EQ(inv.gate(1).kind, OpKind::kSdg);
}

TEST(Circuit, WithoutNonUnitary)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.measure_all();
    qc.barrier();
    EXPECT_EQ(qc.without_non_unitary().size(), 1u);
}

TEST(Dag, LinearChainDependencies)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.t(0);
    qc.x(0);
    DagCircuit dag(qc);
    EXPECT_EQ(dag.num_nodes(), 3);
    EXPECT_EQ(dag.initial_front(), std::vector<int>({0}));
    EXPECT_EQ(dag.preds(1)[0], 0);
    EXPECT_EQ(dag.succs(1)[0], 2);
    EXPECT_EQ(dag.succs(2)[0], -1);
    EXPECT_EQ(dag.wire_front(0), 0);
    EXPECT_EQ(dag.wire_back(0), 2);
}

TEST(Dag, TwoQubitGateJoinsWires)
{
    QuantumCircuit qc(2);
    qc.h(0);   // 0
    qc.h(1);   // 1
    qc.cx(0, 1); // 2
    qc.x(0);   // 3
    DagCircuit dag(qc);
    EXPECT_EQ(dag.initial_front(), std::vector<int>({0, 1}));
    EXPECT_EQ(dag.num_distinct_preds(2), 2);
    EXPECT_EQ(std::vector<int>(dag.preds(2).begin(), dag.preds(2).end()),
              std::vector<int>({0, 1}));
    EXPECT_EQ(std::vector<int>(dag.succs(2).begin(), dag.succs(2).end()),
              std::vector<int>({3, -1}));
    EXPECT_EQ(std::vector<int>(dag.distinct_preds(2).begin(),
                               dag.distinct_preds(2).end()),
              std::vector<int>({0, 1}));
    EXPECT_EQ(std::vector<int>(dag.distinct_succs(2).begin(),
                               dag.distinct_succs(2).end()),
              std::vector<int>({3}));
}

TEST(Dag, DistinctViewsDeduplicateAndSort)
{
    // cx(1,0) then cx(0,1): both wires connect the same node pair, so the
    // per-position view repeats the neighbor while the distinct view
    // collapses it.
    QuantumCircuit qc(2);
    qc.cx(1, 0);
    qc.cx(0, 1);
    DagCircuit dag(qc);
    EXPECT_EQ(dag.succs(0).size(), 2);
    EXPECT_EQ(dag.succs(0)[0], 1);
    EXPECT_EQ(dag.succs(0)[1], 1);
    EXPECT_EQ(dag.distinct_succs(0).size(), 1);
    EXPECT_EQ(dag.distinct_succs(0)[0], 1);
    EXPECT_EQ(dag.distinct_preds(1).size(), 1);
    EXPECT_EQ(dag.num_distinct_preds(1), 1);
    EXPECT_TRUE(dag.distinct_succs(1).empty());
}

TEST(Dag, DistinctPredCountsSharedPredecessor)
{
    // cx(0,1) followed by cx(0,1): the second has ONE distinct pred.
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.cx(0, 1);
    DagCircuit dag(qc);
    EXPECT_EQ(dag.num_distinct_preds(1), 1);
}

TEST(Dag, RoundTripsToCircuit)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cx(0, 2);
    qc.ccx(0, 1, 2);
    DagCircuit dag(qc);
    QuantumCircuit back = dag.to_circuit();
    ASSERT_EQ(back.size(), qc.size());
    for (size_t i = 0; i < qc.size(); ++i)
        EXPECT_TRUE(back.gate(i) == qc.gate(i));
}

TEST(Qasm, EmitsHeaderAndGates)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.rz(M_PI / 4.0, 1);
    qc.measure(0);
    std::string text = to_qasm(qc);
    EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(text.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(text.find("h q[0];"), std::string::npos);
    EXPECT_NE(text.find("cx q[0], q[1];"), std::string::npos);
    EXPECT_NE(text.find("measure q[0] -> c[0];"), std::string::npos);
}

TEST(Qasm, RoundTripPreservesSemantics)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.u(0.1, 0.2, 0.3, 1);
    qc.cp(0.7, 0, 2);
    qc.ccx(0, 1, 2);
    qc.swap(1, 2);
    QuantumCircuit back = from_qasm(to_qasm(qc));
    ASSERT_EQ(back.num_qubits(), 3);
    EXPECT_TRUE(circuits_equivalent(qc, back));
}

TEST(Qasm, ParsesPiExpressions)
{
    std::string text = R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[1];
        rz(pi/2) q[0];
        rz(-pi/4) q[0];
        rz(3*pi/2) q[0];
        rz(2*(pi+1)) q[0];
        rz(1.5e-3) q[0];
    )";
    QuantumCircuit qc = from_qasm(text);
    ASSERT_EQ(qc.size(), 5u);
    EXPECT_DOUBLE_EQ(qc.gate(0).params[0], M_PI / 2.0);
    EXPECT_DOUBLE_EQ(qc.gate(1).params[0], -M_PI / 4.0);
    EXPECT_DOUBLE_EQ(qc.gate(2).params[0], 3.0 * M_PI / 2.0);
    EXPECT_DOUBLE_EQ(qc.gate(3).params[0], 2.0 * (M_PI + 1.0));
    EXPECT_DOUBLE_EQ(qc.gate(4).params[0], 1.5e-3);
}

TEST(Qasm, ParsesMultipleRegisters)
{
    std::string text = R"(
        OPENQASM 2.0;
        qreg a[2];
        qreg b[2];
        cx a[1], b[0];
    )";
    QuantumCircuit qc = from_qasm(text);
    EXPECT_EQ(qc.num_qubits(), 4);
    EXPECT_EQ(qc.gate(0).qubits, std::vector<int>({1, 2}));
}

TEST(Qasm, ParsesU2Alias)
{
    QuantumCircuit qc =
        from_qasm("qreg q[1]; u2(0.1, 0.2) q[0];");
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).kind, OpKind::kU);
    EXPECT_DOUBLE_EQ(qc.gate(0).params[0], M_PI / 2.0);
}

TEST(Qasm, RejectsUnknownGate)
{
    EXPECT_THROW(from_qasm("qreg q[1]; frobnicate q[0];"),
                 std::runtime_error);
    EXPECT_THROW(from_qasm("qreg q[1]; h q[5];"), std::runtime_error);
}

TEST(Qasm, RejectsNonFiniteParameters)
{
    for (const char *param : {"0/0", "pi/0", "-pi/0", "1e308*10"}) {
        const std::string text = std::string("qreg q[1]; h q[0]; rz(") +
                                 param + ") q[0]; h q[0];";
        try {
            from_qasm(text);
            ADD_FAILURE() << param << " parsed";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
            EXPECT_NE(what.find("'rz'"), std::string::npos) << what;
        }
    }
    // Large but finite angles still parse.
    EXPECT_EQ(from_qasm("qreg q[1]; rz(1e12) q[0];").gate(0).params[0],
              1e12);
}

TEST(Qasm, NumbersOutOfDoubleRange)
{
    // An overflowing literal is inf, rejected like any non-finite angle
    // and naming the gate (not a bare out_of_range from the parser).
    try {
        from_qasm("qreg q[1]; rz(1e400) q[0];");
        ADD_FAILURE() << "1e400 parsed";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
        EXPECT_NE(what.find("'rz'"), std::string::npos) << what;
    }
    // An underflowing literal is a subnormal or zero, never an error...
    EXPECT_EQ(from_qasm("qreg q[1]; rz(1e-400) q[0];").gate(0).params[0],
              0.0);
    // ...so the smallest subnormal survives a round trip.
    QuantumCircuit qc(1);
    qc.rz(std::numeric_limits<double>::denorm_min(), 0);
    EXPECT_EQ(from_qasm(to_qasm(qc)).gate(0).params[0],
              std::numeric_limits<double>::denorm_min());
}

TEST(Qasm, RejectsMalformedNumbers)
{
    // Each used to parse as its longest numeric prefix ("1e" as 1).
    for (const char *param : {"1e", "1e+", "1.2.3", "2e-"}) {
        const std::string text =
            std::string("qreg q[1]; rz(") + param + ") q[0];";
        try {
            from_qasm(text);
            ADD_FAILURE() << param << " parsed";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("malformed number"), std::string::npos)
                << what;
        }
    }
}

/** The std::runtime_error that from_qasm(text) throws; fails the test
 *  when the text parses. */
std::string
qasm_error(const std::string &text)
{
    try {
        from_qasm(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    ADD_FAILURE() << "parsed: " << text;
    return {};
}

TEST(Qasm, RejectsTrailingOperandNamingTheStatement)
{
    // Each used to drop what follows the first operand's ']' (or, for
    // u2, every operand after the first) and parse as a one-qubit gate
    // or a truncated one.
    for (const char *stmt :
         {"h q[0] q[0]", "cx q[0], q[1] q[0]", "measure q[0] q[1] -> c[0]",
          "barrier q[0] x", "u2(0, 0) q[0], q[1]"}) {
        const std::string what =
            qasm_error(std::string("qreg q[2]; ") + stmt + ";");
        EXPECT_NE(what.find(stmt), std::string::npos) << what;
    }
}

TEST(Qasm, RejectsRedeclaredRegister)
{
    // Used to shift the offsets silently: q[2] became the third of five
    // qubits.
    const std::string what = qasm_error("qreg q[2]; qreg q[3]; h q[2];");
    EXPECT_NE(what.find("'q' redeclared"), std::string::npos) << what;
    EXPECT_NE(what.find("'qreg q[3]'"), std::string::npos) << what;
}

TEST(Qasm, IgnoresComments)
{
    QuantumCircuit qc = from_qasm(
        "// header comment\nqreg q[1];\nh q[0]; // trailing\n");
    EXPECT_EQ(qc.size(), 1u);
}

} // namespace
} // namespace nassc
