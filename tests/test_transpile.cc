// End-to-end transpiler tests: routed circuits must respect the coupling
// map, stay in the device basis, and implement the same unitary as the
// input (up to layout permutations and global phase).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/sim/unitary.h"
#include "nassc/transpile/transpile.h"
#include "synth_memo_oracle.h"

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

/** Random <=2q logical circuit for property testing. */
QuantumCircuit
random_logical(int n, int gates, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> qd(0, n - 1);
    std::uniform_int_distribution<int> kd(0, 7);
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    QuantumCircuit qc(n);
    for (int i = 0; i < gates; ++i) {
        switch (kd(rng)) {
          case 0: qc.h(qd(rng)); break;
          case 1: qc.t(qd(rng)); break;
          case 2: qc.rz(ang(rng), qd(rng)); break;
          case 3: qc.ry(ang(rng), qd(rng)); break;
          case 4: qc.x(qd(rng)); break;
          default: {
            int a = qd(rng), b = qd(rng);
            if (a == b)
                b = (b + 1) % n;
            qc.cx(a, b);
            break;
          }
        }
    }
    return qc;
}

struct Cfg
{
    RoutingAlgorithm router;
    unsigned seed;
};

class TranspileEquiv
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(TranspileEquiv, RandomCircuitsOnLine)
{
    auto [router_int, seed] = GetParam();
    Backend dev = linear_backend(5);
    TranspileOptions opts;
    opts.router = static_cast<RoutingAlgorithm>(router_int);
    opts.seed = seed;

    for (int trial = 0; trial < 4; ++trial) {
        QuantumCircuit logical =
            random_logical(4, 30, 1000 * seed + trial);
        TranspileResult res = transpile(logical, dev, opts);

        EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling));
        EXPECT_TRUE(is_basis_circuit(res.circuit));
        EXPECT_TRUE(equivalent_with_layout(logical, res.circuit,
                                           res.initial_l2p, res.final_l2p))
            << "router=" << router_int << " seed=" << seed
            << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TranspileEquiv,
    ::testing::Combine(::testing::Values(0, 1), // kSabre, kNassc
                       ::testing::Values(0, 1, 2)));

TEST(Transpile, GroverOnGridEquivalent)
{
    Backend dev = grid_backend(2, 3);
    QuantumCircuit logical = grover(4);
    for (int router = 0; router < 2; ++router) {
        TranspileOptions opts;
        opts.router = static_cast<RoutingAlgorithm>(router);
        TranspileResult res = transpile(logical, dev, opts);
        EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling));
        EXPECT_TRUE(equivalent_with_layout(logical, res.circuit,
                                           res.initial_l2p, res.final_l2p))
            << "router=" << router;
    }
}

TEST(Transpile, Mod5OnMontrealEquivalent)
{
    // Uses only a handful of the 27 wires; equivalence checked through
    // the layout-aware comparator on the full device register.
    Backend dev = montreal_backend();
    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kNassc;
    TranspileResult res = transpile(logical, dev, opts);
    EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling));
    // Full 27-qubit statevector is too large; validate on the active
    // subspace via a compacted circuit: all gates must stay within a
    // small set of wires reachable from the initial layout by swaps.
    EXPECT_TRUE(is_basis_circuit(res.circuit));
    EXPECT_GT(res.cx_total, 0);
}

TEST(Transpile, NasscNotWorseThanSabreOnAverage)
{
    // Aggregate sanity: across several small benchmarks, the NASSC CX
    // total must not exceed SABRE's by more than a whisker.
    Backend dev = linear_backend(6);
    std::vector<QuantumCircuit> cases = {
        grover(4),
        vqe_full(5, 2, 3),
        qft(5),
        cuccaro_adder(2),
    };
    long sabre_total = 0, nassc_total = 0;
    for (const auto &logical : cases) {
        for (unsigned seed = 0; seed < 3; ++seed) {
            TranspileOptions so;
            so.router = RoutingAlgorithm::kSabre;
            so.seed = seed;
            TranspileOptions no;
            no.router = RoutingAlgorithm::kNassc;
            no.seed = seed;
            sabre_total += transpile(logical, dev, so).cx_total;
            nassc_total += transpile(logical, dev, no).cx_total;
        }
    }
    EXPECT_LE(nassc_total, sabre_total + 2)
        << "sabre=" << sabre_total << " nassc=" << nassc_total;
}

TEST(Transpile, OptimizeOnlyBaseline)
{
    QuantumCircuit logical = grover(4);
    TranspileResult base = optimize_only(logical);
    EXPECT_TRUE(is_basis_circuit(base.circuit));
    // Unitary preserved.
    EXPECT_TRUE(equivalent_with_layout(logical, base.circuit,
                                       base.initial_l2p, base.final_l2p));
}

TEST(Transpile, OptimizeOnlyHonoursOptLoopRounds)
{
    // The baseline must follow TranspileOptions so CNOT_add ablations
    // under non-default opt_loop_rounds stay apples-to-apples; the
    // default-options overload reproduces the historical behaviour.
    QuantumCircuit logical = grover(4);
    TranspileResult legacy = optimize_only(logical);
    TranspileResult defaulted = optimize_only(logical, TranspileOptions{});
    ASSERT_EQ(legacy.circuit.size(), defaulted.circuit.size());
    for (std::size_t i = 0; i < legacy.circuit.size(); ++i)
        ASSERT_TRUE(legacy.circuit.gate(i) == defaulted.circuit.gate(i));

    TranspileOptions no_loop;
    no_loop.opt_loop_rounds = 0;
    TranspileResult raw = optimize_only(logical, no_loop);
    EXPECT_TRUE(is_basis_circuit(raw.circuit));
    // Skipping the optimization loop can only leave more (or equal)
    // gates behind, and the unitary is still the same.
    EXPECT_GE(raw.circuit.size(), legacy.circuit.size());
    EXPECT_TRUE(equivalent_with_layout(logical, raw.circuit,
                                       raw.initial_l2p, raw.final_l2p));
}

TEST(Transpile, ReportsStatsAndTiming)
{
    Backend dev = linear_backend(6);
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kNassc;
    TranspileResult res = transpile(qft(6), dev, opts);
    EXPECT_GT(res.routing_stats.num_swaps, 0);
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_EQ(res.cx_total, res.circuit.cx_count());
    EXPECT_EQ(res.depth, res.circuit.depth());
}

TEST(Transpile, OptimizationTogglesWork)
{
    Backend dev = linear_backend(6);
    QuantumCircuit logical = qft(6);
    for (int mask = 0; mask < 8; ++mask) {
        TranspileOptions opts;
        opts.router = RoutingAlgorithm::kNassc;
        opts.enable_c2q = mask & 1;
        opts.enable_commute1 = mask & 2;
        opts.enable_commute2 = mask & 4;
        TranspileResult res = transpile(logical, dev, opts);
        EXPECT_TRUE(respects_coupling(res.circuit, dev.coupling)) << mask;
        EXPECT_TRUE(equivalent_with_layout(logical, res.circuit,
                                           res.initial_l2p, res.final_l2p))
            << "mask=" << mask;
    }
}

TEST(Transpile, NonFiniteExtendedWeightIsRejected)
{
    // A NaN or infinite lookahead weight used to surface as the internal
    // error "gate swap: duplicate operand" from deep inside routing.
    Backend dev = montreal_backend();
    const QuantumCircuit logical = benchmark_by_name("qft_n15");
    for (RoutingAlgorithm router :
         {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
        for (double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
            TranspileOptions opts;
            opts.router = router;
            opts.extended_weight = w;
            try {
                transpile(logical, dev, opts);
                ADD_FAILURE() << "extended_weight=" << w << " transpiled";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("extended_weight"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Transpile, SynthMemoMatchesLegacy1qPassesOnTableILoopInputs)
{
    // Every input of a loop round's Optimize1qGates and basis
    // translation on the Table I workload: the circuit transpile()
    // hands its loop (opt_loop_rounds = 0), then the loop step by step.
    // One warmed memo sees every input, as a service's pooled memo
    // would; the end of the steps must be transpile()'s own output, so
    // the checked inputs are the real ones.
    const Backend dev = montreal_backend();
    DistanceCache cache;
    SynthMemo warm;
    for (const BenchmarkCase &bench : table_benchmarks()) {
        for (RoutingAlgorithm router :
             {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
            const std::string tag =
                bench.name +
                (router == RoutingAlgorithm::kSabre ? "/sabre" : "/nassc");
            TranspileOptions opts;
            opts.router = router;
            TranspileOptions no_loop = opts;
            no_loop.opt_loop_rounds = 0;
            QuantumCircuit c =
                transpile(bench.circuit, dev, no_loop, cache).circuit;
            int last_size = -1;
            for (int r = 0; r < opts.opt_loop_rounds; ++r) {
                const std::string rtag = tag + " round " + std::to_string(r);
                expect_1q_memo_exact(c, warm, rtag + " first");
                run_optimize_1q(c, Basis1q::kZsx);
                run_commutative_cancellation_to_fixpoint(c);
                consolidate_2q_blocks(c, Basis1q::kZsx);
                expect_1q_memo_exact(c, warm, rtag + " consolidated");
                c = translate_to_basis(c);
                expect_1q_memo_exact(c, warm, rtag + " translated");
                run_optimize_1q(c, Basis1q::kZsx);
                const int size = static_cast<int>(c.size());
                if (size == last_size)
                    break;
                last_size = size;
            }
            EXPECT_EQ(c.fingerprint(),
                      transpile(bench.circuit, dev, opts, cache)
                          .circuit.fingerprint())
                << tag << ": the step-by-step loop left transpile()";
        }
    }
    EXPECT_GT(warm.hits(), warm.misses());
}

} // namespace
} // namespace nassc
