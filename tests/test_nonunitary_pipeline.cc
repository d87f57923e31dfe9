// End-to-end coverage for circuits containing measures and barriers.
//
// The layout search historically routed without_non_unitary() while
// route_circuit and the optimization passes saw the full circuit, so
// the non-unitary path through routing, SWAP decomposition, block
// consolidation, and basis translation was barely exercised.  These
// tests pin that seam:
//
//  - collect/consolidate_2q_blocks must treat a measure or barrier on a
//    shared wire as a hard block boundary (merging across one would
//    cancel gates whose product is only identity *unitarily*);
//  - route_circuit must map measure/barrier operands through the live
//    layout, preserving their counts and never stranding them;
//  - transpile() must stay correct end to end (coupling, basis,
//    measure/barrier preservation, unitary equivalence of the gate
//    part) across SABRE/NASSC x hops/noise x layout_trials {1, 4}.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/route/sabre.h"
#include "nassc/sim/verify.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

bool
respects_coupling(const QuantumCircuit &qc, const CouplingMap &cm)
{
    for (const Gate &g : qc.gates()) {
        if (g.num_qubits() == 2 && is_unitary_op(g.kind)) {
            if (!cm.connected(g.qubits[0], g.qubits[1]))
                return false;
        }
    }
    return true;
}

/** Index of the first gate of `kind`, or -1. */
int
first_index_of(const QuantumCircuit &qc, OpKind kind)
{
    for (std::size_t i = 0; i < qc.size(); ++i)
        if (qc.gate(i).kind == kind)
            return static_cast<int>(i);
    return -1;
}

TEST(NonUnitaryBlocks, ConsolidateDoesNotMergeAcrossMeasure)
{
    // CX . measure(0) . CX: unitarily the CXs would cancel, but the
    // measure in between makes that rewrite wrong.  The block collector
    // must break at the measure and consolidation must leave both CXs.
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.measure(0);
    qc.cx(0, 1);

    auto blocks = collect_2q_blocks(qc);
    for (const TwoQubitBlock &blk : blocks)
        for (int idx : blk.gate_indices)
            EXPECT_NE(qc.gate(idx).kind, OpKind::kMeasure);
    // No block may span the measure: all member indices sit on one side.
    for (const TwoQubitBlock &blk : blocks) {
        bool before = false, after = false;
        for (int idx : blk.gate_indices)
            (idx < 1 ? before : after) = true;
        EXPECT_FALSE(before && after);
    }

    consolidate_2q_blocks(qc, Basis1q::kUGate);
    EXPECT_EQ(qc.count(OpKind::kCX), 2);
    EXPECT_EQ(qc.count(OpKind::kMeasure), 1);
    int m = first_index_of(qc, OpKind::kMeasure);
    int c1 = first_index_of(qc, OpKind::kCX);
    ASSERT_GE(m, 0);
    ASSERT_GE(c1, 0);
    EXPECT_LT(c1, m); // one CX stays before the measure ...
    bool cx_after = false;
    for (std::size_t i = static_cast<std::size_t>(m) + 1; i < qc.size();
         ++i)
        cx_after |= qc.gate(i).kind == OpKind::kCX;
    EXPECT_TRUE(cx_after); // ... and one after
}

TEST(NonUnitaryBlocks, ConsolidateDoesNotMergeAcrossBarrier)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.barrier();
    qc.cx(0, 1);
    consolidate_2q_blocks(qc, Basis1q::kUGate);
    EXPECT_EQ(qc.count(OpKind::kCX), 2);
    EXPECT_EQ(qc.count(OpKind::kBarrier), 1);
}

TEST(NonUnitaryBlocks, PendingOneQubitGatesDoNotCrossMeasure)
{
    // H(0) waits as a pending 1q prefix; the measure on wire 0 must
    // flush it — a later block on {0, 1} may not absorb it backwards
    // across the measure (that would reorder H past the measurement).
    QuantumCircuit qc(2);
    qc.h(0);
    qc.measure(0);
    qc.cx(0, 1);
    consolidate_2q_blocks(qc, Basis1q::kUGate);
    int h = first_index_of(qc, OpKind::kH);
    int m = first_index_of(qc, OpKind::kMeasure);
    ASSERT_GE(h, 0);
    ASSERT_GE(m, 0);
    EXPECT_LT(h, m);
}

TEST(NonUnitaryRouting, RouteCircuitPreservesMeasuresAndBarriers)
{
    // Mid-circuit measure + barriers on a line: routing must map their
    // operands through the live layout and keep every one of them.
    Backend dev = linear_backend(5);
    const DistanceProvider dist = hop_distance(dev.coupling);
    QuantumCircuit qc(4);
    qc.h(0);
    qc.cx(0, 3); // forces SWAPs on a line
    qc.measure(1);
    qc.barrier();
    qc.cx(3, 1);
    qc.cx(2, 0);
    qc.measure_all();

    for (RoutingAlgorithm alg :
         {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
        RoutingOptions opts;
        opts.algorithm = alg;
        Layout init =
            sabre_initial_layout(qc, dev.coupling, dist, opts);
        RoutingResult res =
            route_circuit(qc, dev.coupling, dist, init, opts);
        EXPECT_EQ(res.circuit.count(OpKind::kMeasure), 5)
            << static_cast<int>(alg);
        EXPECT_EQ(res.circuit.count(OpKind::kBarrier), 1);
        EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling));
        // Non-unitary operands must be valid physical wires.
        for (const Gate &g : res.circuit.gates())
            for (int q : g.qubits) {
                EXPECT_GE(q, 0);
                EXPECT_LT(q, dev.coupling.num_qubits());
            }
    }
}

TEST(NonUnitaryTranspile, MeasureAllWithMidBarrierEndToEnd)
{
    // The satellite's full matrix: SABRE/NASSC x hops/noise, plus the
    // multi-trial reuse path, on a circuit with a mid-circuit barrier
    // and terminal measures.  The gate part must still implement the
    // logical unitary (measures/barriers act as identity in the
    // checker), and every measure/barrier must survive the pipeline.
    Backend dev = linear_backend(5);
    QuantumCircuit logical(4);
    logical.h(0);
    logical.cx(0, 1);
    logical.t(1);
    logical.cx(1, 3);
    logical.barrier();
    logical.ry(0.7, 2);
    logical.cx(3, 0);
    logical.cx(2, 3);
    logical.barrier();
    logical.measure_all();

    for (int router = 0; router < 2; ++router) {
        for (bool noise : {false, true}) {
            for (int trials : {1, 4}) {
                TranspileOptions opts;
                opts.router = static_cast<RoutingAlgorithm>(router);
                opts.noise_aware = noise;
                opts.layout_trials = trials;
                opts.layout_threads = 1;
                TranspileResult res = transpile(logical, dev, opts);

                const char *tag = router == 0 ? "sabre" : "nassc";
                EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling))
                    << tag << noise << trials;
                EXPECT_TRUE(is_basis_circuit(res.circuit))
                    << tag << noise << trials;
                EXPECT_EQ(res.circuit.count(OpKind::kMeasure), 4)
                    << tag << noise << trials;
                EXPECT_EQ(res.circuit.count(OpKind::kBarrier), 2)
                    << tag << noise << trials;
                EXPECT_TRUE(verify_transpilation(logical, res))
                    << tag << " noise=" << noise << " trials=" << trials;
                // Reuse happens exactly on the SABRE pipeline.
                EXPECT_EQ(res.reused_search_route, router == 0)
                    << tag << noise << trials;
            }
        }
    }
}

TEST(NonUnitaryTranspile, MeasureOnlyCircuit)
{
    // Degenerate but legal: nothing to route, everything to preserve.
    Backend dev = linear_backend(4);
    QuantumCircuit logical(3);
    logical.measure_all();
    for (int router = 0; router < 2; ++router) {
        TranspileOptions opts;
        opts.router = static_cast<RoutingAlgorithm>(router);
        TranspileResult res = transpile(logical, dev, opts);
        EXPECT_EQ(res.circuit.count(OpKind::kMeasure), 3) << router;
        EXPECT_EQ(res.routing_stats.num_swaps, 0) << router;
    }
}

} // namespace
} // namespace nassc
