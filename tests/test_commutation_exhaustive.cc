// Exhaustive validation of the commutation oracle's fast paths against
// the exact matrix definition: for every pair of gate kinds and every
// wire-overlap pattern, gates_commute() must agree with multiplying the
// operators out.  The oracle's fast paths are load-bearing for both
// CommutativeCancellation and the NASSC commute windows, so an error
// here would silently corrupt circuits.

#include <random>

#include <gtest/gtest.h>

#include "nassc/passes/commutation.h"
#include "nassc/sim/unitary.h"

namespace nassc {
namespace {

/** Ground truth: compare U_ab vs U_ba on the union of wires. */
bool
matrix_truth(const Gate &a, const Gate &b, int num_qubits)
{
    QuantumCircuit ab(num_qubits), ba(num_qubits);
    ab.append(a);
    ab.append(b);
    ba.append(b);
    ba.append(a);
    MatN uab = unitary_of_circuit(ab);
    MatN uba = unitary_of_circuit(ba);
    return frobenius_distance(uab, uba) < 1e-9;
}

Gate
make_gate(OpKind k, const std::vector<int> &qs)
{
    std::vector<double> params;
    for (int i = 0; i < op_num_params(k); ++i)
        params.push_back(0.37 + 0.21 * i); // fixed non-special angles
    return Gate(k, qs, params);
}

const OpKind kOneQ[] = {OpKind::kX,  OpKind::kY,   OpKind::kZ,
                        OpKind::kH,  OpKind::kS,   OpKind::kT,
                        OpKind::kSX, OpKind::kRX,  OpKind::kRY,
                        OpKind::kRZ, OpKind::kP,   OpKind::kU};

const OpKind kTwoQ[] = {OpKind::kCX,  OpKind::kCY,   OpKind::kCZ,
                        OpKind::kCH,  OpKind::kCP,   OpKind::kCRX,
                        OpKind::kCRZ, OpKind::kRZZ,  OpKind::kRXX,
                        OpKind::kSwap, OpKind::kISwap};

TEST(CommutationExhaustive, OneQubitPairsSameWire)
{
    for (OpKind ka : kOneQ) {
        for (OpKind kb : kOneQ) {
            Gate a = make_gate(ka, {0});
            Gate b = make_gate(kb, {0});
            EXPECT_EQ(gates_commute(a, b), matrix_truth(a, b, 1))
                << op_name(ka) << " vs " << op_name(kb);
        }
    }
}

TEST(CommutationExhaustive, OneQubitVsTwoQubitAllOverlaps)
{
    for (OpKind ka : kOneQ) {
        for (OpKind kb : kTwoQ) {
            for (int wire : {0, 1}) {
                Gate a = make_gate(ka, {wire});
                Gate b = make_gate(kb, {0, 1});
                EXPECT_EQ(gates_commute(a, b), matrix_truth(a, b, 2))
                    << op_name(ka) << "@q" << wire << " vs "
                    << op_name(kb);
                EXPECT_EQ(gates_commute(b, a), gates_commute(a, b))
                    << "symmetry " << op_name(ka) << "/" << op_name(kb);
            }
        }
    }
}

TEST(CommutationExhaustive, TwoQubitPairsSamePair)
{
    for (OpKind ka : kTwoQ) {
        for (OpKind kb : kTwoQ) {
            for (bool flip : {false, true}) {
                Gate a = make_gate(ka, {0, 1});
                Gate b = make_gate(kb, flip ? std::vector<int>{1, 0}
                                            : std::vector<int>{0, 1});
                EXPECT_EQ(gates_commute(a, b), matrix_truth(a, b, 2))
                    << op_name(ka) << " vs " << op_name(kb)
                    << (flip ? " flipped" : "");
            }
        }
    }
}

TEST(CommutationExhaustive, TwoQubitPairsSharedWire)
{
    // Gates on (0,1) vs (1,2) and vs (2,1): one shared wire in both
    // control-like and target-like positions.
    for (OpKind ka : kTwoQ) {
        for (OpKind kb : kTwoQ) {
            for (bool flip : {false, true}) {
                Gate a = make_gate(ka, {0, 1});
                Gate b = make_gate(kb, flip ? std::vector<int>{2, 1}
                                            : std::vector<int>{1, 2});
                EXPECT_EQ(gates_commute(a, b), matrix_truth(a, b, 3))
                    << op_name(ka) << " vs " << op_name(kb)
                    << (flip ? " flipped" : "");
            }
        }
    }
}

TEST(CommutationExhaustive, RandomAnglesAgree)
{
    // Angle-dependent cases (e.g. rz(pi) = Z commutes differently than
    // generic rz? it must not — but p(pi)/cp(pi) hit special values).
    std::mt19937 rng(123);
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    const OpKind param1q[] = {OpKind::kRX, OpKind::kRZ, OpKind::kP};
    const OpKind param2q[] = {OpKind::kCP, OpKind::kCRX, OpKind::kRZZ};
    for (int trial = 0; trial < 30; ++trial) {
        Gate a(param1q[trial % 3], {trial % 2}, {ang(rng)});
        Gate b(param2q[(trial / 3) % 3], {0, 1}, {ang(rng)});
        EXPECT_EQ(gates_commute(a, b), matrix_truth(a, b, 2))
            << trial;
    }
}

TEST(CommutationExhaustive, OneWireAngleTable)
{
    // z-axis rotations at special, tiny and huge angles against the
    // non-diagonal 1q gates; 0.5e-9 vs 0.9e-9 straddles the 1e-9
    // threshold and 1e12 overflows any fixed-point angle key.
    const double angles[] = {0.0,    1e-12,  -1e-12, 0.5e-9, 0.9e-9, M_PI,
                             2 * M_PI, -2 * M_PI, 4 * M_PI, 1e12};
    const Gate others[] = {Gate(OpKind::kSX, {0}), Gate(OpKind::kX, {0}),
                           Gate(OpKind::kH, {0}),
                           Gate(OpKind::kRY, {0}, {0.37}),
                           Gate(OpKind::kU, {0}, {0.37, 0.58, 0.79})};
    for (OpKind kz : {OpKind::kRZ, OpKind::kP}) {
        for (double theta : angles) {
            Gate z(kz, {0}, {theta});
            for (const Gate &o : others) {
                EXPECT_EQ(gates_commute(z, o), matrix_truth(z, o, 1))
                    << op_name(kz) << "(" << theta << ") vs "
                    << op_name(o.kind);
                EXPECT_EQ(gates_commute(o, z), matrix_truth(o, z, 1))
                    << op_name(o.kind) << " vs " << op_name(kz) << "("
                    << theta << ")";
            }
        }
    }
}

TEST(CommutationExhaustive, AnswerIgnoresCallHistory)
{
    // rz(0.5e-9) commutes with x within the 1e-9 threshold and
    // rz(0.9e-9) does not; asking in this order must not let the first
    // answer stand in for the second.
    Gate x(OpKind::kX, {0});
    Gate near(OpKind::kRZ, {0}, {0.5e-9});
    Gate far(OpKind::kRZ, {0}, {0.9e-9});
    ASSERT_TRUE(matrix_truth(x, near, 1));
    ASSERT_FALSE(matrix_truth(x, far, 1));
    EXPECT_EQ(gates_commute(x, near), matrix_truth(x, near, 1));
    EXPECT_EQ(gates_commute(x, far), matrix_truth(x, far, 1));
}

TEST(CommutationExhaustive, DisjointAlwaysCommute)
{
    for (OpKind ka : kTwoQ) {
        Gate a = make_gate(ka, {0, 1});
        Gate b = make_gate(OpKind::kCX, {2, 3});
        EXPECT_TRUE(gates_commute(a, b)) << op_name(ka);
    }
}

TEST(CommutationExhaustive, BarriersNeverCommute)
{
    Gate barrier = Gate::barrier({0, 1});
    Gate cx = Gate::two_q(OpKind::kCX, 0, 1);
    EXPECT_FALSE(gates_commute(barrier, cx));
    EXPECT_FALSE(gates_commute(cx, barrier));
}

TEST(CommutationExhaustive, MeasureCommutesOnlyDisjoint)
{
    Gate m = Gate::measure(0);
    EXPECT_FALSE(gates_commute(m, Gate::two_q(OpKind::kCX, 0, 1)));
    EXPECT_TRUE(gates_commute(m, Gate::two_q(OpKind::kCX, 1, 2)));
}

} // namespace
} // namespace nassc
