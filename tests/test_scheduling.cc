// Tests for the ASAP/ALAP scheduler and the transpilation verifier.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/scheduling.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

TEST(Scheduling, SerialChainAddsDurations)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 2); // depends on wire 1: serial
    DurationModel model;
    Schedule s = schedule_asap(qc, dev, model);
    double d01 = dev.calibration.cx_duration(0, 1);
    double d12 = dev.calibration.cx_duration(1, 2);
    EXPECT_DOUBLE_EQ(s.gates[0].start_ns, 0.0);
    EXPECT_DOUBLE_EQ(s.gates[1].start_ns, d01);
    EXPECT_DOUBLE_EQ(s.total_ns, d01 + d12);
}

TEST(Scheduling, ParallelGatesOverlap)
{
    Backend dev = linear_backend(4);
    QuantumCircuit qc(4);
    qc.cx(0, 1);
    qc.cx(2, 3); // disjoint: parallel
    Schedule s = schedule_asap(qc, dev);
    EXPECT_DOUBLE_EQ(s.gates[1].start_ns, 0.0);
}

TEST(Scheduling, RzIsFree)
{
    Backend dev = linear_backend(2);
    QuantumCircuit qc(2);
    qc.rz(0.5, 0);
    qc.rz(0.5, 0);
    Schedule s = schedule_asap(qc, dev);
    EXPECT_DOUBLE_EQ(s.total_ns, 0.0);
}

TEST(Scheduling, AlapMatchesMakespan)
{
    Backend dev = linear_backend(5);
    QuantumCircuit qc(5);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    qc.sx(4);
    Schedule asap = schedule_asap(qc, dev);
    Schedule alap = schedule_alap(qc, dev);
    EXPECT_DOUBLE_EQ(asap.total_ns, alap.total_ns);
    // The stray sx on wire 4 floats to the end under ALAP.
    EXPECT_GT(alap.gates[3].start_ns, asap.gates[3].start_ns);
    // ALAP never starts a gate earlier than ASAP.
    for (size_t i = 0; i < qc.size(); ++i)
        EXPECT_GE(alap.gates[i].start_ns, asap.gates[i].start_ns - 1e-9);
}

TEST(Scheduling, FewerCxShortensSchedule)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = qft(8);
    TranspileOptions sabre;
    sabre.router = RoutingAlgorithm::kSabre;
    TranspileOptions nassc;
    nassc.router = RoutingAlgorithm::kNassc;
    TranspileResult rs = transpile(logical, dev, sabre);
    TranspileResult rn = transpile(logical, dev, nassc);
    double ts = schedule_asap(rs.circuit, dev).total_ns;
    double tn = schedule_asap(rn.circuit, dev).total_ns;
    // NASSC should not produce a dramatically longer schedule.
    EXPECT_LT(tn, ts * 1.3);
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
