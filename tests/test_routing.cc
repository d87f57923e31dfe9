// Tests for layout, the SABRE router, and the NASSC optimization-aware
// routing extensions.

#include <random>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/dag.h"
#include "nassc/math/weyl.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/route/nassc_router.h"
#include "nassc/route/sabre.h"
#include "nassc/sim/unitary.h"
#include "nassc/synth/kak2q.h"
#include "nassc/topo/backends.h"

namespace nassc {
namespace {

bool
respects_coupling(const QuantumCircuit &qc, const CouplingMap &cm)
{
    for (const Gate &g : qc.gates())
        if (g.num_qubits() == 2 && is_unitary_op(g.kind) &&
            !cm.connected(g.qubits[0], g.qubits[1]))
            return false;
    return true;
}

// ---- Layout -----------------------------------------------------------------

TEST(Layout, TrivialMapsIdentity)
{
    Layout l(3, 5);
    EXPECT_EQ(l.phys_of(2), 2);
    EXPECT_EQ(l.log_of(2), 2);
    EXPECT_EQ(l.log_of(4), -1);
}

TEST(Layout, SwapMovesLogicals)
{
    Layout l(2, 3);
    l.swap_physical(0, 2); // logical 0 moves to physical 2
    EXPECT_EQ(l.phys_of(0), 2);
    EXPECT_EQ(l.log_of(2), 0);
    EXPECT_EQ(l.log_of(0), -1);
    l.swap_physical(2, 1); // logical 0 -> physical 1; logical 1 -> 2
    EXPECT_EQ(l.phys_of(0), 1);
    EXPECT_EQ(l.phys_of(1), 2);
}

TEST(Layout, RandomIsInjective)
{
    std::mt19937 rng(9);
    for (int t = 0; t < 20; ++t) {
        Layout l = Layout::random(5, 9, rng);
        std::vector<bool> used(9, false);
        for (int i = 0; i < 5; ++i) {
            int p = l.phys_of(i);
            EXPECT_FALSE(used[p]);
            used[p] = true;
            EXPECT_EQ(l.log_of(p), i);
        }
    }
}

TEST(Layout, FromL2pRejectsDuplicates)
{
    EXPECT_THROW(Layout::from_l2p({0, 0}, 3), std::invalid_argument);
    EXPECT_THROW(Layout::from_l2p({0, 7}, 3), std::out_of_range);
}

// ---- SABRE routing ----------------------------------------------------------

class RouteBackend : public ::testing::TestWithParam<int>
{
  protected:
    Backend
    backend() const
    {
        switch (GetParam()) {
          case 0: return linear_backend(6);
          case 1: return grid_backend(2, 3);
          default: return montreal_backend();
        }
    }
};

TEST_P(RouteBackend, AllGatesRoutedAndCoupled)
{
    Backend dev = backend();
    QuantumCircuit logical = decompose_to_2q(qft(5));
    RoutingOptions opts;
    Layout init(logical.num_qubits(), dev.coupling.num_qubits());
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling));
    // Every input gate must appear (swaps extra).
    EXPECT_EQ(res.circuit.size() - res.circuit.count(OpKind::kSwap),
              logical.size());
    EXPECT_EQ(res.stats.num_swaps, res.circuit.count(OpKind::kSwap));
}

INSTANTIATE_TEST_SUITE_P(Topologies, RouteBackend,
                         ::testing::Values(0, 1, 2));

TEST(Route, NoSwapsWhenAlreadyCompatible)
{
    Backend dev = linear_backend(4);
    QuantumCircuit logical(4);
    logical.cx(0, 1);
    logical.cx(1, 2);
    logical.cx(2, 3);
    RoutingOptions opts;
    Layout init(4, 4);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_EQ(res.stats.num_swaps, 0);
    EXPECT_EQ(res.circuit.size(), 3u);
}

TEST(Route, FullyConnectedNeverSwaps)
{
    Backend dev = fully_connected_backend(8);
    QuantumCircuit logical = decompose_to_2q(grover(6));
    RoutingOptions opts;
    Layout init(6, 8);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_EQ(res.stats.num_swaps, 0);
}

TEST(Route, EquivalenceUnderLayout)
{
    Backend dev = linear_backend(5);
    QuantumCircuit logical = decompose_to_2q(cuccaro_adder(1)); // 4 qubits
    for (unsigned seed = 0; seed < 4; ++seed) {
        RoutingOptions opts;
        opts.seed = seed;
        Layout init = sabre_initial_layout(logical, dev.coupling,
                                           hop_distance(dev.coupling), opts);
        RoutingResult res =
            route_circuit(logical, dev.coupling, hop_distance(dev.coupling),
                          init, opts);
        QuantumCircuit phys = res.circuit;
        decompose_swaps(phys, false);
        EXPECT_TRUE(equivalent_with_layout(logical, phys, res.initial_l2p,
                                           res.final_l2p))
            << seed;
    }
}

TEST(Route, HandlesMeasureAndBarrier)
{
    Backend dev = linear_backend(4);
    QuantumCircuit logical(3);
    logical.h(0);
    logical.cx(0, 2);
    logical.barrier();
    logical.cx(2, 0);
    logical.measure_all();
    RoutingOptions opts;
    Layout init(3, 4);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_EQ(res.circuit.count(OpKind::kMeasure), 3);
    EXPECT_EQ(res.circuit.count(OpKind::kBarrier), 1);
    EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling));
}

TEST(Route, RejectsWideGates)
{
    Backend dev = linear_backend(4);
    QuantumCircuit logical(3);
    logical.ccx(0, 1, 2);
    RoutingOptions opts;
    Layout init(3, 4);
    EXPECT_THROW(route_circuit(logical, dev.coupling,
                               hop_distance(dev.coupling), init, opts),
                 std::invalid_argument);
}

TEST(Route, LookaheadReducesSwapsOnAverage)
{
    // With lookahead disabled (|E| = 0 weight), SABRE typically needs at
    // least as many swaps across seeds.
    Backend dev = linear_backend(8);
    QuantumCircuit logical = decompose_to_2q(qft(8));
    long with = 0, without = 0;
    for (unsigned seed = 0; seed < 5; ++seed) {
        RoutingOptions a;
        a.seed = seed;
        RoutingOptions b;
        b.seed = seed;
        b.extended_weight = 0.0;
        Layout ia = sabre_initial_layout(logical, dev.coupling,
                                         hop_distance(dev.coupling), a);
        with += route_circuit(logical, dev.coupling,
                              hop_distance(dev.coupling), ia, a)
                    .stats.num_swaps;
        without += route_circuit(logical, dev.coupling,
                                 hop_distance(dev.coupling), ia, b)
                       .stats.num_swaps;
    }
    EXPECT_LE(with, without + 3);
}

TEST(Route, SabreLayoutBeatsWorstRandom)
{
    // Reverse-traversal refinement should not be drastically worse than a
    // raw random layout.
    Backend dev = grid_backend(3, 3);
    QuantumCircuit logical = decompose_to_2q(grover(6));
    RoutingOptions opts;
    opts.seed = 42;
    std::mt19937 rng(99);
    Layout refined = sabre_initial_layout(logical, dev.coupling,
                                          hop_distance(dev.coupling), opts);
    Layout raw = Layout::random(6, 9, rng);
    int s_ref = route_circuit(logical, dev.coupling,
                              hop_distance(dev.coupling), refined, opts)
                    .stats.num_swaps;
    int s_raw = route_circuit(logical, dev.coupling,
                              hop_distance(dev.coupling), raw, opts)
                    .stats.num_swaps;
    EXPECT_LE(s_ref, s_raw + 5);
}

// ---- NASSC-specific ---------------------------------------------------------

TEST(Nassc, FlagsAndStatsPopulated)
{
    Backend dev = linear_backend(10);
    QuantumCircuit logical = decompose_to_2q(qft(10));
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    Layout init = sabre_initial_layout(logical, dev.coupling,
                                       hop_distance(dev.coupling), opts);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    EXPECT_GT(res.stats.num_swaps, 0);
    // QFT has heavy CP structure: at least one optimization must fire.
    EXPECT_GT(res.stats.c2q_hits + res.stats.commute1_hits +
                  res.stats.commute2_hits,
              0);
}

TEST(Nassc, DisabledOptimizationsMatchSabreSwapCount)
{
    // With all b_k = 0, NASSC's cost function degenerates to SABRE's.
    Backend dev = grid_backend(3, 3);
    QuantumCircuit logical = decompose_to_2q(qft(7));
    RoutingOptions sabre;
    RoutingOptions nassc_off;
    nassc_off.algorithm = RoutingAlgorithm::kNassc;
    nassc_off.enable_c2q = false;
    nassc_off.enable_commute1 = false;
    nassc_off.enable_commute2 = false;
    Layout init = sabre_initial_layout(logical, dev.coupling,
                                       hop_distance(dev.coupling), sabre);
    RoutingResult rs = route_circuit(logical, dev.coupling,
                                     hop_distance(dev.coupling), init, sabre);
    RoutingResult rn = route_circuit(
        logical, dev.coupling, hop_distance(dev.coupling), init, nassc_off);
    EXPECT_EQ(rs.stats.num_swaps, rn.stats.num_swaps);
    EXPECT_EQ(rn.stats.flagged_swaps, 0);
}

TEST(Nassc, TrackerC2qDetectsRichBlock)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    CouplingMap line(4, {{0, 1}, {1, 2}, {2, 3}});
    OptAwareTracker tracker(line, opts);
    // Build a 3-CNOT-rich block on wires (0,1): a SWAP there is free.
    tracker.on_gate(Gate::two_q(OpKind::kCX, 0, 1), 0);
    tracker.on_gate(Gate::one_q(OpKind::kRY, 0, 0.3), 1);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 1, 0), 2);
    tracker.on_gate(Gate::one_q(OpKind::kRZ, 1, 0.9), 3);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 0, 1), 4);
    SwapReduction red = tracker.evaluate_swap(0, 1);
    EXPECT_EQ(red.c2q, 3);
    // No block on (2,3): no reduction there.
    SwapReduction none = tracker.evaluate_swap(2, 3);
    EXPECT_EQ(none.c2q, 0);
    EXPECT_FALSE(none.commute1);
}

TEST(Nassc, TrackerC2qSingleCx)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    opts.enable_commute1 = false; // isolate C2q
    CouplingMap line(2, {{0, 1}});
    OptAwareTracker tracker(line, opts);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 0, 1), 0);
    SwapReduction red = tracker.evaluate_swap(0, 1);
    // SWAP * CX needs 2 CNOTs: C2q = 3 + 1 - 2 = 2.
    EXPECT_EQ(red.c2q, 2);
}

TEST(Nassc, TrackerCommute1FindsCancellableCnot)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    opts.enable_c2q = false;
    CouplingMap line(3, {{0, 1}, {1, 2}});
    OptAwareTracker tracker(line, opts);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 1, 0), 0);
    // A commuting CX in between (shared target with the first).
    tracker.on_gate(Gate::two_q(OpKind::kCX, 2, 0), 1);
    SwapReduction red = tracker.evaluate_swap(0, 1);
    EXPECT_TRUE(red.commute1);
    // Orientation: the found cx has control 1 = second operand of (0,1).
    EXPECT_EQ(red.orient, SwapOrient::kSecond);
}

TEST(Nassc, TrackerCommute1BlockedByH)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    CouplingMap line(3, {{0, 1}, {1, 2}});
    OptAwareTracker tracker(line, opts);
    tracker.on_gate(Gate::two_q(OpKind::kCX, 1, 0), 0);
    tracker.on_gate(Gate::one_q(OpKind::kH, 0), 1);
    // The H becomes interior once another 2q gate lands on wire 0.
    tracker.on_gate(Gate::two_q(OpKind::kCX, 2, 0), 2);
    SwapReduction red = tracker.evaluate_swap(0, 1);
    EXPECT_FALSE(red.commute1);
}

TEST(Nassc, TrackerCommute2Sandwich)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    opts.enable_c2q = false;
    opts.enable_commute1 = false;
    CouplingMap line(3, {{0, 1}, {1, 2}});
    OptAwareTracker tracker(line, opts);
    Gate sw = Gate::two_q(OpKind::kSwap, 0, 1);
    tracker.on_gate(sw, 0);
    // Commuting middle: cx sharing structure that commutes with cx(0,1).
    tracker.on_gate(Gate::two_q(OpKind::kCX, 0, 2), 1);
    SwapReduction red = tracker.evaluate_swap(0, 1);
    EXPECT_TRUE(red.commute2);
    EXPECT_EQ(red.partner_swap_out_idx, 0);
}

TEST(Nassc, TrackerRejectsNonEdgeCandidates)
{
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    CouplingMap line(3, {{0, 1}, {1, 2}});
    OptAwareTracker tracker(line, opts);
    EXPECT_THROW(tracker.evaluate_swap(0, 2), std::invalid_argument);
}

/** Emit `count` random 1q/2q gates on coupling edges into `tracker`,
 *  flagging a few records consumed the way the router does. */
void
feed_random_gates(OptAwareTracker &tracker, const CouplingMap &cm,
                  std::mt19937 &rng, int count)
{
    const auto &edges = cm.edges();
    std::uniform_int_distribution<std::size_t> pick(0, edges.size() - 1);
    for (int i = 0; i < count; ++i) {
        auto [a, b] = edges[pick(rng)];
        if (rng() % 2)
            std::swap(a, b);
        Gate g = Gate::two_q(OpKind::kCX, a, b);
        switch (rng() % 6) {
          case 0: g = Gate::one_q(OpKind::kRZ, a, 0.1 * (rng() % 30)); break;
          case 1: g = Gate::one_q(OpKind::kSX, a); break;
          case 2: g = Gate::two_q(OpKind::kSwap, a, b); break;
          default: break;
        }
        tracker.on_gate(g, i);
        if (g.num_qubits() == 2 && rng() % 9 == 0)
            tracker.consume_record(g, i);
    }
}

TEST(Nassc, TrackerResetMatchesFreshTracker)
{
    // reset() rewinds only the wires touched since the previous reset,
    // and cached evaluations of untouched wires survive it: every edge,
    // in both orientations, must still score exactly like a freshly
    // built tracker fed the same gates.
    Backend dev = montreal_backend();
    const CouplingMap &cm = dev.coupling;
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    OptAwareTracker reused(cm, opts);
    for (unsigned seed = 1; seed <= 6; ++seed) {
        // Warm every slot, then reset and replay a second workload.
        std::mt19937 warm(seed * 101);
        feed_random_gates(reused, cm, warm, 10 + 15 * seed);
        for (auto [p, q] : cm.edges()) {
            (void)reused.evaluate_swap(p, q);
            (void)reused.evaluate_swap(q, p);
        }
        reused.reset();

        OptAwareTracker fresh(cm, opts);
        std::mt19937 a(seed), b(seed);
        const int count = 5 + 9 * static_cast<int>(seed);
        feed_random_gates(reused, cm, a, count);
        feed_random_gates(fresh, cm, b, count);
        for (auto [p, q] : cm.edges()) {
            for (auto [x, y] : {std::pair{p, q}, std::pair{q, p}}) {
                const SwapReduction got = reused.evaluate_swap(x, y);
                const SwapReduction want = fresh.evaluate_swap(x, y);
                EXPECT_EQ(got.total, want.total) << x << "," << y;
                EXPECT_EQ(got.c2q, want.c2q);
                EXPECT_EQ(got.commute1, want.commute1);
                EXPECT_EQ(got.commute2, want.commute2);
                EXPECT_EQ(got.orient, want.orient);
                EXPECT_EQ(got.partner_swap_out_idx,
                          want.partner_swap_out_idx);
                EXPECT_EQ(got.used_record_idx, want.used_record_idx);
            }
        }
        reused.reset();
    }
}

TEST(Nassc, MemoizedC2qCostsEqualDirectCnotCosts)
{
    // Blocks of each CNOT class, a signed zero, and enough random blocks
    // (35 key words each) to clear the tracker's memo at its 128 Ki-word
    // bound: the tracker's pair equals a direct cnot_cost pair on the
    // miss, on the hit that follows and across a reset.
    const Backend dev = linear_backend(3);
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    OptAwareTracker tracker(dev.coupling, opts);
    auto block = [](std::vector<Gate> gates) {
        return unitary_of_2q_gates(gates, 0, 1);
    };
    const Gate cx01 = Gate::two_q(OpKind::kCX, 0, 1);
    const Gate cx10 = Gate::two_q(OpKind::kCX, 1, 0);
    std::vector<Mat4> blocks = {
        Mat4::identity(),
        block({cx01}),
        block({cx01, cx10}),
        swap_mat(),
        block({Gate::two_q(OpKind::kCRZ, 0, 1, 0.3)}),
        block({cx01, Gate::one_q(OpKind::kRY, 0, 0.4), cx10,
               Gate::one_q(OpKind::kRZ, 1, 0.7)}),
    };
    Mat4 signed_zero = Mat4::identity();
    signed_zero(0, 1) = Cx(-0.0, -0.0);
    blocks.push_back(signed_zero);
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> angle(-M_PI, M_PI);
    for (int k = 0; k < 4500; ++k) {
        std::vector<Gate> gates;
        for (int layer = 0; layer < 1 + k % 3; ++layer) {
            gates.push_back(Gate::u(0, angle(rng), angle(rng), angle(rng)));
            gates.push_back(Gate::u(1, angle(rng), angle(rng), angle(rng)));
            gates.push_back(layer % 2 ? cx10 : cx01);
        }
        blocks.push_back(block(gates));
    }
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            const Mat4 &u = blocks[i];
            const std::pair<int, int> want{cnot_cost(u),
                                           cnot_cost(mul(swap_mat(), u))};
            EXPECT_EQ(tracker.c2q_costs(u), want) << "block " << i;
            EXPECT_EQ(tracker.c2q_costs(u), want) << "block " << i;
        }
        tracker.reset();
    }
    EXPECT_LT(tracker.memory_bytes(), std::size_t{2} << 20);
}

TEST(NasscScale, TrackerBytesFollowEdgesNotQubitsSquared)
{
    // The tracker keeps O(1) state per wire plus one evaluation slot
    // per (coupling edge, orientation).  A dense per-(p, q) cache would
    // be ~14x larger on the 4243-qubit lattice than on the 1123-qubit
    // one, and hundreds of MB outright.
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    auto bytes_of = [&](int distance) {
        const Backend dev = heavy_hex_backend(distance);
        OptAwareTracker tracker(dev.coupling, opts);
        const std::size_t n = dev.coupling.num_qubits();
        const std::size_t e = dev.coupling.edges().size();
        // O(qubits + edges) with a per-item constant under 512 bytes.
        EXPECT_LT(tracker.memory_bytes(), 512 * (n + e));
        return std::pair{tracker.memory_bytes(), n};
    };
    const auto [bytes_1k, n_1k] = bytes_of(21);
    const auto [bytes_4k, n_4k] = bytes_of(41);
    ASSERT_EQ(n_4k, 4243u);
    EXPECT_LT(bytes_4k, 8u << 20); // the dense cache was ~720 MB
    // Linear growth across the 3.8x device-size jump.
    EXPECT_LT(static_cast<double>(bytes_4k) / bytes_1k,
              1.1 * static_cast<double>(n_4k) / n_1k);
}

TEST(Nassc, EndToEndFlaggedSwapsDecomposeCorrectly)
{
    Backend dev = linear_backend(5);
    QuantumCircuit logical = decompose_to_2q(qft(5));
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    Layout init = sabre_initial_layout(logical, dev.coupling,
                                       hop_distance(dev.coupling), opts);
    RoutingResult res = route_circuit(logical, dev.coupling,
                                      hop_distance(dev.coupling), init, opts);
    QuantumCircuit phys = res.circuit;
    decompose_swaps(phys, true);
    EXPECT_TRUE(equivalent_with_layout(logical, phys, res.initial_l2p,
                                       res.final_l2p));
}

TEST(Nassc, MovedOneQubitGatesPreserveSemantics)
{
    // Dense 1q + 2q mix maximizes move-through opportunities.
    std::mt19937 rng(31);
    std::uniform_int_distribution<int> qd(0, 4), kd(0, 5);
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    Backend dev = linear_backend(5);
    for (int trial = 0; trial < 5; ++trial) {
        QuantumCircuit logical(5);
        for (int i = 0; i < 60; ++i) {
            if (kd(rng) < 3) {
                logical.rz(ang(rng), qd(rng));
            } else {
                int a = qd(rng), b = qd(rng);
                if (a == b)
                    b = (b + 1) % 5;
                logical.cx(a, b);
            }
        }
        RoutingOptions opts;
        opts.algorithm = RoutingAlgorithm::kNassc;
        opts.seed = trial;
        Layout init = sabre_initial_layout(
            logical, dev.coupling, hop_distance(dev.coupling), opts);
        RoutingResult res =
            route_circuit(logical, dev.coupling, hop_distance(dev.coupling),
                          init, opts);
        QuantumCircuit phys = res.circuit;
        decompose_swaps(phys, true);
        EXPECT_TRUE(equivalent_with_layout(logical, phys, res.initial_l2p,
                                           res.final_l2p))
            << trial;
    }
}

} // namespace
} // namespace nassc
