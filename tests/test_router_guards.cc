// Tests for the router's robustness guards: reduction capping, partner
// consumption, no-undo rule, and deadlock breaking.

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/route/nassc_router.h"
#include "nassc/route/sabre.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

TEST(RouterGuards, ReductionCappedAtSwapCost)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    CouplingMap line(4, {{0, 1}, {1, 2}, {2, 3}});
    OptAwareTracker tracker(line, opts);
    // Rich block (C2q = 3) plus a cancellable CX (Ccommute1 = 2): the
    // combined claim must still be <= 3.
    tracker.on_gate(Gate::two_q(OpKind::kCX, 0, 1), 0);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 1, 0), 1);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 0, 1), 2);
    SwapReduction red = tracker.evaluate_swap(0, 1);
    EXPECT_LE(red.total, 3.0);
    EXPECT_GT(red.total, 0.0);
}

TEST(RouterGuards, ConsumedRecordNotReused)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    opts.enable_c2q = false;
    CouplingMap line(3, {{0, 1}, {1, 2}});
    OptAwareTracker tracker(line, opts);
    const Gate cx = Gate::two_q(OpKind::kCX, 0, 1);
    tracker.on_gate(cx, 0);
    SwapReduction first = tracker.evaluate_swap(0, 1);
    ASSERT_TRUE(first.commute1);
    EXPECT_EQ(first.used_record_idx, 0);
    tracker.consume_record(cx, first.used_record_idx);
    SwapReduction second = tracker.evaluate_swap(0, 1);
    EXPECT_FALSE(second.commute1);
}

TEST(RouterGuards, ConsumeUnknownIndexIsNoop)
{
    RoutingOptions opts;
    CouplingMap pair(2, {{0, 1}});
    OptAwareTracker tracker(pair, opts);
    const Gate cx = Gate::two_q(OpKind::kCX, 0, 1);
    EXPECT_NO_THROW(tracker.consume_record(cx, -1));
    EXPECT_NO_THROW(tracker.consume_record(cx, 999));
}

TEST(RouterGuards, RoutingTerminatesOnAdversarialCircuit)
{
    // Repeated far-apart pairs on a line maximize swap churn; the
    // watchdog and no-undo rule must keep the router finite.
    Backend dev = linear_backend(8);
    QuantumCircuit logical(8);
    for (int i = 0; i < 30; ++i) {
        logical.cx(0, 7);
        logical.cx(3, 6);
        logical.cx(1, 5);
    }
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    Layout init(8, 8);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_EQ(res.circuit.size() - res.circuit.count(OpKind::kSwap),
              logical.size());
}

TEST(RouterGuards, ForcedSwapFailsLoudlyOnIsolatedQubit)
{
    // Qubit 3 has no coupling edges, so cx(3, 0) can never be routed.
    // Once the forced-swap watchdog fires, the blocked qubit has no
    // neighbor to move toward: the router must throw instead of calling
    // apply_swap(pa, -1, ...) and corrupting the layout.
    CouplingMap cm(4, {{0, 1}, {1, 2}});
    QuantumCircuit logical(4);
    logical.cx(3, 0);
    RoutingOptions opts;
    Layout init(4, 4);
    EXPECT_THROW(route_circuit(logical, cm, hop_distance(cm), init, opts),
                 std::logic_error);
}

TEST(RouterGuards, BestSwapFailsLoudlyWhenBothQubitsIsolated)
{
    // Both endpoints isolated: the candidate list itself is empty, which
    // must be a clean error rather than apply_swap(-1, -1).
    CouplingMap cm(4, {{0, 1}});
    QuantumCircuit logical(4);
    logical.cx(2, 3);
    RoutingOptions opts;
    Layout init(4, 4);
    EXPECT_THROW(route_circuit(logical, cm, hop_distance(cm), init, opts),
                 std::logic_error);
}

TEST(RouterGuards, OverflowingExtendedWeightFailsNamingTheOption)
{
    // A finite but huge weight turns every lookahead score into +inf, so
    // no candidate compares best; both routers must reject it by name
    // instead of applying the empty {-1, -1} choice as a SWAP.
    Backend dev = linear_backend(8);
    QuantumCircuit logical(8);
    for (int i = 0; i < 3; ++i) {
        logical.cx(0, 7);
        logical.cx(3, 6);
        logical.cx(1, 5);
    }
    for (RoutingAlgorithm algo :
         {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
        RoutingOptions opts;
        opts.algorithm = algo;
        opts.extended_weight = 1e308;
        Layout init(8, 8);
        try {
            route_circuit(logical, dev.coupling, hop_distance(dev.coupling),
                          init, opts);
            ADD_FAILURE() << "routed with extended_weight = 1e308";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("extended_weight"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RouterGuards, ZeroExtendedSizeWorks)
{
    Backend dev = linear_backend(6);
    QuantumCircuit logical = decompose_to_2q(qft(6));
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    opts.extended_size = 0;
    Layout init(6, 6);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_GT(res.stats.num_swaps, 0);
}

TEST(RouterGuards, SingleGateCircuit)
{
    Backend dev = linear_backend(3);
    QuantumCircuit logical(3);
    logical.cx(0, 2);
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    Layout init(3, 3);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_GE(res.stats.num_swaps, 1);
    QuantumCircuit phys = res.circuit;
    TranspileResult fake;
    fake.circuit = translate_to_basis([&] {
        QuantumCircuit c = phys;
        decompose_swaps(c, true);
        return c;
    }());
    fake.initial_l2p = res.initial_l2p;
    fake.final_l2p = res.final_l2p;
    EXPECT_TRUE(verify_transpilation(logical, fake));
}

TEST(RouterGuards, EmptyCircuit)
{
    Backend dev = linear_backend(4);
    QuantumCircuit logical(3);
    RoutingOptions opts;
    Layout init(3, 4);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_EQ(res.circuit.size(), 0u);
    EXPECT_EQ(res.stats.num_swaps, 0);
}

TEST(RouterGuards, OneQubitOnlyCircuit)
{
    Backend dev = linear_backend(4);
    QuantumCircuit logical(2);
    logical.h(0);
    logical.rz(0.4, 1);
    RoutingOptions opts;
    Layout init(2, 4);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_EQ(res.stats.num_swaps, 0);
    EXPECT_EQ(res.circuit.size(), 2u);
}

} // namespace
} // namespace nassc
