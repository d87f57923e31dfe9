// Tests for the parallel multi-trial layout search (LayoutSearch):
//
//  (a) layout_trials = 1 is bit-identical to the historical single-seed
//      sabre_initial_layout reverse traversal, on the full Table I
//      suite and both distance metrics;
//  (b) layout_trials = 4 returns the identical best layout, trial
//      outcomes, and downstream RoutingStats for 1, 2, and 8 worker
//      threads;
//  (c) trial-seed derivation is a pure function of (base seed, trial) —
//      independent of scheduling order, with trial 0 keeping the base
//      seed;
//  (d) every trial — including the single-trial fast path — carries a
//      scored (swaps, depth) outcome from one full-circuit routing
//      pass, and the scored numbers agree with an independent
//      route_circuit run;
//  (e) reuse equivalence: the retained routed pass (reuse_routing) is
//      bit-for-bit the circuit the non-reuse path computes with its
//      separate route_circuit call, for trials in {1, 4} x threads in
//      {1, 8}, on unitary and measure/barrier-bearing circuits alike,
//      and transpile() skips its routing step exactly when legal;
//  (f) trial diversity: when racing, trial 1 is seeded from a partial
//      perfect-layout embedding (zero scored SWAPs on an embeddable
//      chain) and trial 2 from the degree-matched heuristic;
//  (g) run()'s deadline reaches the trials that helper tasks run, and
//      an expired one throws the typed deadline error;
//  (h) the fan-out: every trial runs exactly once whatever the thread
//      count, a throwing trial propagates from run() without harming
//      the shared pool, and a race inside a task, inside a held
//      CallerSlot or at layout_threads = 1 claims no pool task.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/dag.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/route/layout_search.h"
#include "nassc/route/router.h"
#include "nassc/route/sabre.h"
#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"
#include "nassc/service/scheduler.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/context.h"

namespace nassc {
namespace {

/** FNV-1a over a routed gate stream and the layouts (the same
 *  construction as the golden-metrics suite). */
std::uint64_t
routing_fingerprint(const RoutingResult &res)
{
    std::uint64_t h = 14695981039346656037ull;
    auto mix_u64 = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const Gate &g : res.circuit.gates()) {
        mix_u64(static_cast<std::uint64_t>(g.kind));
        mix_u64(static_cast<std::uint64_t>(g.swap_orient) + 2);
        for (int q : g.qubits)
            mix_u64(static_cast<std::uint64_t>(q));
        for (double p : g.params) {
            std::uint64_t v;
            std::memcpy(&v, &p, sizeof(v));
            mix_u64(v);
        }
    }
    for (int p : res.initial_l2p)
        mix_u64(static_cast<std::uint64_t>(p));
    for (int p : res.final_l2p)
        mix_u64(static_cast<std::uint64_t>(p));
    return h;
}

/**
 * The pre-LayoutSearch reverse traversal, reproduced verbatim: one
 * random seed layout refined by alternating forward/backward passes.
 * Pinning against this keeps the engine's trials=1 path honest even if
 * the goldens are ever regenerated.
 */
Layout
reference_single_seed_layout(const QuantumCircuit &logical,
                             const CouplingMap &coupling,
                             const DistanceProvider &dist,
                             const RoutingOptions &opts, int iterations = 3)
{
    std::mt19937 rng(opts.seed);
    Layout layout =
        Layout::random(logical.num_qubits(), coupling.num_qubits(), rng);

    QuantumCircuit fwd = logical.without_non_unitary();
    QuantumCircuit rev(fwd.num_qubits());
    for (auto it = fwd.gates().rbegin(); it != fwd.gates().rend(); ++it)
        rev.append(*it);

    RoutingOptions lopts = opts;
    lopts.algorithm = RoutingAlgorithm::kSabre;

    DagCircuit fwd_dag(fwd);
    DagCircuit rev_dag(rev);
    Router fwd_router(fwd_dag, coupling, dist, lopts);
    Router rev_router(rev_dag, coupling, dist, lopts);

    for (int iter = 0; iter < iterations; ++iter) {
        layout = fwd_router.route_to_layout(layout);
        layout = rev_router.route_to_layout(layout);
    }
    return layout;
}

/** Terminal measure_all plus a mid-circuit barrier, to exercise the
 *  non-unitary routing seam of the scoring pass. */
QuantumCircuit
with_measures_and_barrier(const QuantumCircuit &base)
{
    QuantumCircuit qc(base.num_qubits());
    std::size_t half = base.size() / 2;
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (i == half)
            qc.barrier();
        qc.append(base.gate(i));
    }
    qc.barrier();
    qc.measure_all();
    return qc;
}

TEST(LayoutTrials, SingleTrialMatchesHistoricalSearchOnTableI)
{
    Backend dev = montreal_backend();
    for (bool noise : {false, true}) {
        const DistanceProvider dist =
            noise ? noise_aware_distance(dev) : hop_distance(dev.coupling);
        for (const BenchmarkCase &bc : table_benchmarks()) {
            QuantumCircuit logical = decompose_to_2q(bc.circuit);
            RoutingOptions opts;
            opts.seed = 7;
            ASSERT_EQ(opts.layout_trials, 1);
            Layout engine =
                sabre_initial_layout(logical, dev.coupling, dist, opts);
            Layout reference = reference_single_seed_layout(
                logical, dev.coupling, dist, opts);
            EXPECT_EQ(engine.l2p(), reference.l2p())
                << bc.name << (noise ? " (noise)" : " (hops)");
        }
    }
}

TEST(LayoutTrials, SingleTrialOutcomesAreScored)
{
    // The single-trial fast path must populate LayoutTrial::swaps/depth
    // exactly like the racing path: one forward full-circuit routing
    // pass from the refined layout, with the SABRE mapping options.
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    QuantumCircuit logical = decompose_to_2q(benchmark_by_name("qft_n15"));

    RoutingOptions opts;
    opts.seed = 7;
    opts.layout_trials = 1;
    LayoutSearchResult res =
        search_and_route(logical, dev.coupling, dist, opts);

    ASSERT_EQ(res.trials.size(), 1u);
    ASSERT_EQ(res.best_trial, 0);
    EXPECT_EQ(res.trials[0].kind, TrialSeedKind::kRandom);
    EXPECT_GE(res.trials[0].swaps, 0);
    EXPECT_GE(res.trials[0].depth, 0);

    // The scored numbers are real: an independent SABRE route from the
    // returned layout reproduces them.
    RoutingOptions sopts = opts;
    sopts.algorithm = RoutingAlgorithm::kSabre;
    RoutingResult check = route_circuit(logical, dev.coupling, dist,
                                        res.initial, sopts);
    EXPECT_EQ(res.trials[0].swaps, check.stats.num_swaps);
    EXPECT_EQ(res.trials[0].depth, check.circuit.depth());

    // Trial 0 refines identically whatever the trial count, so its
    // scored outcome is the same in a 1-trial and a 4-trial run —
    // outcomes are uniform across trial counts.
    RoutingOptions opts4 = opts;
    opts4.layout_trials = 4;
    opts4.layout_threads = 1;
    LayoutSearchResult res4 =
        search_and_route(logical, dev.coupling, dist, opts4);
    ASSERT_EQ(res4.trials.size(), 4u);
    EXPECT_EQ(res4.trials[0].swaps, res.trials[0].swaps);
    EXPECT_EQ(res4.trials[0].depth, res.trials[0].depth);
    EXPECT_EQ(res4.trials[0].layout.l2p(), res.trials[0].layout.l2p());

    // The pure-layout single-trial path (no race, no retention) skips
    // the scoring pass outright and marks the trial unscored — that is
    // the historical sabre_initial_layout cost, pinned here.
    RoutingOptions bare = opts;
    bare.reuse_routing = false;
    LayoutSearch layout_only(logical, dev.coupling, dist, bare);
    LayoutSearchResult unscored = layout_only.run();
    EXPECT_EQ(unscored.scoring_passes, 0);
    EXPECT_EQ(unscored.trials[0].swaps, -1);
    EXPECT_EQ(unscored.trials[0].depth, -1);
    EXPECT_EQ(unscored.initial.l2p(), res.initial.l2p());
    // Whereas the retained single-trial run reports its one pass.
    EXPECT_EQ(res.scoring_passes, 1);
    EXPECT_EQ(res4.scoring_passes, 4);
}

TEST(LayoutTrials, MultiTrialBitIdenticalAcrossThreadCounts)
{
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);

    for (const char *name : {"qft_n15", "adder_n10", "grover_n8"}) {
        QuantumCircuit logical = decompose_to_2q(benchmark_by_name(name));

        std::vector<int> best_l2p;
        std::vector<LayoutTrial> first_trials;
        int first_best = -1;
        RoutingStats first_stats{};

        for (int threads : {1, 2, 8}) {
            RoutingOptions opts;
            opts.seed = 11;
            opts.layout_trials = 4;
            opts.layout_threads = threads;
            LayoutSearch search(logical, dev.coupling, dist, opts);
            LayoutSearchResult res = search.run();
            const Layout &best = res.initial;

            // Downstream routing from the winning layout: stats must be
            // identical too (the layout is, so this pins the full chain).
            RoutingOptions ropts;
            ropts.algorithm = RoutingAlgorithm::kNassc;
            RoutingResult routed = route_circuit(logical, dev.coupling,
                                                 dist, best, ropts);

            if (threads == 1) {
                best_l2p = best.l2p();
                first_trials = res.trials;
                first_best = res.best_trial;
                first_stats = routed.stats;
                ASSERT_EQ(first_trials.size(), 4u) << name;
                for (const LayoutTrial &t : first_trials) {
                    EXPECT_GE(t.swaps, 0) << name;
                    EXPECT_GE(t.depth, 0) << name;
                }
                EXPECT_EQ(first_trials[0].kind, TrialSeedKind::kRandom);
                EXPECT_EQ(first_trials[1].kind,
                          TrialSeedKind::kEmbedding);
                EXPECT_EQ(first_trials[2].kind, TrialSeedKind::kDegree);
                EXPECT_EQ(first_trials[3].kind, TrialSeedKind::kRandom);
                continue;
            }

            EXPECT_EQ(best.l2p(), best_l2p) << name << " x" << threads;
            EXPECT_EQ(res.best_trial, first_best)
                << name << " x" << threads;
            ASSERT_EQ(res.trials.size(), first_trials.size());
            for (std::size_t t = 0; t < first_trials.size(); ++t) {
                const LayoutTrial &a = res.trials[t];
                const LayoutTrial &b = first_trials[t];
                EXPECT_EQ(a.seed, b.seed) << name << " trial " << t;
                EXPECT_EQ(a.kind, b.kind) << name << " trial " << t;
                EXPECT_EQ(a.swaps, b.swaps) << name << " trial " << t;
                EXPECT_EQ(a.depth, b.depth) << name << " trial " << t;
                EXPECT_EQ(a.layout.l2p(), b.layout.l2p())
                    << name << " trial " << t;
            }
            EXPECT_EQ(routed.stats.num_swaps, first_stats.num_swaps);
            EXPECT_EQ(routed.stats.flagged_swaps, first_stats.flagged_swaps);
            EXPECT_EQ(routed.stats.c2q_hits, first_stats.c2q_hits);
            EXPECT_EQ(routed.stats.commute1_hits,
                      first_stats.commute1_hits);
            EXPECT_EQ(routed.stats.commute2_hits,
                      first_stats.commute2_hits);
            EXPECT_EQ(routed.stats.moved_1q, first_stats.moved_1q);
        }
    }
}

TEST(LayoutTrials, ReuseEquivalenceGoldens)
{
    // The retained routed pass must be bit-for-bit what the non-reuse
    // path computes with its separate route_circuit call — RoutingStats
    // and gate-stream/layout FNV fingerprints — for trials in {1, 4} x
    // threads in {1, 8}, on plain-unitary circuits and on circuits with
    // measures and barriers (the seam the scoring pass now routes).
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);

    for (const char *name : {"qft_n15", "adder_n10"}) {
        for (bool measured : {false, true}) {
            QuantumCircuit logical =
                decompose_to_2q(benchmark_by_name(name));
            if (measured)
                logical = with_measures_and_barrier(logical);

            for (int trials : {1, 4}) {
                std::uint64_t want_fp = 0;
                bool have_want = false;
                for (int threads : {1, 8}) {
                    RoutingOptions opts;
                    opts.algorithm = RoutingAlgorithm::kSabre;
                    opts.seed = 5;
                    opts.layout_trials = trials;
                    opts.layout_threads = threads;

                    // Reuse path: the search hands the route back.
                    opts.reuse_routing = true;
                    LayoutSearchResult reused =
                        search_and_route(logical, dev.coupling, dist,
                                         opts);
                    ASSERT_TRUE(reused.routed.has_value())
                        << name << " trials=" << trials;

                    // Non-reuse path: layout only, then route afresh.
                    opts.reuse_routing = false;
                    LayoutSearchResult plain =
                        search_and_route(logical, dev.coupling, dist,
                                         opts);
                    ASSERT_FALSE(plain.routed.has_value());
                    RoutingResult rerouted = route_circuit(
                        logical, dev.coupling, dist, plain.initial, opts);

                    EXPECT_EQ(reused.best_trial, plain.best_trial);
                    EXPECT_EQ(reused.initial.l2p(), plain.initial.l2p());
                    const RoutingStats &a = reused.routed->stats;
                    const RoutingStats &b = rerouted.stats;
                    EXPECT_EQ(a.num_swaps, b.num_swaps);
                    EXPECT_EQ(a.forced_moves, b.forced_moves);
                    std::uint64_t fp_a =
                        routing_fingerprint(*reused.routed);
                    std::uint64_t fp_b = routing_fingerprint(rerouted);
                    EXPECT_EQ(fp_a, fp_b)
                        << name << (measured ? "+meas" : "")
                        << " trials=" << trials
                        << " threads=" << threads;
                    // And the whole cell is thread-count invariant.
                    if (!have_want) {
                        want_fp = fp_a;
                        have_want = true;
                    } else {
                        EXPECT_EQ(fp_a, want_fp)
                            << name << " trials=" << trials
                            << " threads=" << threads;
                    }
                }
            }
        }
    }
}

TEST(LayoutTrials, ReuseEquivalenceFullTableI)
{
    // Acceptance sweep: with layout_trials > 1 on a kSabre pipeline the
    // retained route must equal the non-reuse two-pass flow bit for bit
    // on the whole Table I suite, and stay invariant across 1/2/8
    // worker threads.  The non-reuse reference runs once (threads = 1);
    // winner selection is thread-invariant, so every reuse fingerprint
    // must match it.
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);

    for (const BenchmarkCase &bc : table_benchmarks()) {
        QuantumCircuit logical = decompose_to_2q(bc.circuit);

        RoutingOptions opts;
        opts.algorithm = RoutingAlgorithm::kSabre;
        opts.seed = 13;
        opts.layout_trials = 4;
        opts.layout_threads = 1;
        opts.reuse_routing = false;
        LayoutSearchResult plain =
            search_and_route(logical, dev.coupling, dist, opts);
        ASSERT_FALSE(plain.routed.has_value());
        RoutingResult rerouted = route_circuit(logical, dev.coupling,
                                               dist, plain.initial, opts);
        const std::uint64_t want = routing_fingerprint(rerouted);

        opts.reuse_routing = true;
        for (int threads : {1, 2, 8}) {
            opts.layout_threads = threads;
            LayoutSearchResult reused =
                search_and_route(logical, dev.coupling, dist, opts);
            ASSERT_TRUE(reused.routed.has_value())
                << bc.name << " x" << threads;
            EXPECT_EQ(reused.best_trial, plain.best_trial)
                << bc.name << " x" << threads;
            EXPECT_EQ(reused.routed->stats.num_swaps,
                      rerouted.stats.num_swaps)
                << bc.name << " x" << threads;
            EXPECT_EQ(routing_fingerprint(*reused.routed), want)
                << bc.name << " x" << threads;
        }
    }
}

TEST(LayoutTrials, TranspileSkipsRoutingStepExactlyWhenLegal)
{
    // kSabre + reuse_routing: no separate post-search route (pass count
    // == trials).  Without reuse (or with NASSC) the pipeline pays the
    // separate final route on top of any racing-mode scoring passes —
    // one more pass whenever trials > 1.  The output circuit is
    // bit-identical in all cases where only the reuse switch differs.
    Backend dev = montreal_backend();
    QuantumCircuit logical = benchmark_by_name("adder_n10");

    for (int trials : {1, 4}) {
        TranspileOptions opts;
        opts.router = RoutingAlgorithm::kSabre;
        opts.layout_trials = trials;
        opts.layout_threads = 1;
        TranspileResult reused = transpile(logical, dev, opts);
        EXPECT_TRUE(reused.reused_search_route) << trials;
        EXPECT_EQ(reused.full_route_passes, trials);

        // Without retention the search only scores when racing, and
        // the pipeline pays one separate final route.
        opts.reuse_routing = false;
        TranspileResult plain = transpile(logical, dev, opts);
        EXPECT_FALSE(plain.reused_search_route);
        EXPECT_EQ(plain.full_route_passes, (trials > 1 ? trials : 0) + 1);

        EXPECT_EQ(reused.cx_total, plain.cx_total) << trials;
        EXPECT_EQ(reused.depth, plain.depth) << trials;
        EXPECT_EQ(reused.initial_l2p, plain.initial_l2p);
        EXPECT_EQ(reused.final_l2p, plain.final_l2p);
        EXPECT_EQ(reused.routing_stats.num_swaps,
                  plain.routing_stats.num_swaps);
        ASSERT_EQ(reused.circuit.size(), plain.circuit.size()) << trials;
        for (std::size_t i = 0; i < reused.circuit.size(); ++i)
            ASSERT_TRUE(reused.circuit.gate(i) == plain.circuit.gate(i))
                << trials << " gate " << i;

        // NASSC scores with the SABRE cost model, so its final route
        // can never be reused — whatever the switch says.
        TranspileOptions nassc = opts;
        nassc.router = RoutingAlgorithm::kNassc;
        nassc.reuse_routing = true;
        TranspileResult nres = transpile(logical, dev, nassc);
        EXPECT_FALSE(nres.reused_search_route);
        EXPECT_EQ(nres.full_route_passes, (trials > 1 ? trials : 0) + 1);
    }
}

TEST(LayoutTrials, TrialDiversityHeuristicSeeds)
{
    // A CX chain embeds perfectly into montreal's heavy-hex graph, so
    // the embedding-seeded trial must score zero SWAPs and the race
    // must return a zero-SWAP winner.
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    QuantumCircuit chain(10);
    for (int q = 0; q + 1 < 10; ++q)
        chain.cx(q, q + 1);

    RoutingOptions opts;
    opts.seed = 3;
    opts.layout_trials = 3;
    opts.layout_threads = 1;
    LayoutSearchResult res =
        search_and_route(chain, dev.coupling, dist, opts);

    ASSERT_EQ(res.trials.size(), 3u);
    EXPECT_EQ(res.trials[0].kind, TrialSeedKind::kRandom);
    EXPECT_EQ(res.trials[1].kind, TrialSeedKind::kEmbedding);
    EXPECT_EQ(res.trials[2].kind, TrialSeedKind::kDegree);
    EXPECT_EQ(res.trials[1].swaps, 0);
    EXPECT_EQ(res.trials[res.best_trial].swaps, 0);
    ASSERT_TRUE(res.routed.has_value());
    EXPECT_EQ(res.routed->stats.num_swaps, 0);
}

TEST(LayoutTrials, MultiTrialNeverWorseThanItsOwnTrials)
{
    // The arg-min must actually pick the (swaps, depth)-minimal trial.
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    QuantumCircuit logical = decompose_to_2q(benchmark_by_name("qft_n15"));

    RoutingOptions opts;
    opts.layout_trials = 6;
    LayoutSearch search(logical, dev.coupling, dist, opts);
    LayoutSearchResult res = search.run();

    const LayoutTrial &best = res.trials[res.best_trial];
    for (const LayoutTrial &t : res.trials) {
        EXPECT_TRUE(best.swaps < t.swaps ||
                    (best.swaps == t.swaps && best.depth < t.depth) ||
                    (best.swaps == t.swaps && best.depth == t.depth &&
                     best.trial <= t.trial));
    }
}

TEST(LayoutTrials, DeadlineReachesTrialsOnStolenWorkers)
{
    // The deadline is run()'s argument, checked when each trial starts,
    // on whichever worker runs it.  Four slots each start one trial that
    // the failpoint stalls for 200 ms, under a 100 ms budget: every
    // later trial starts past the deadline and is skipped, on the pool
    // workers as on the caller's slot 0, so at most four complete.  A
    // check that missed the pool workers would let them run whichever
    // of the last four trials they claim before the caller skips them
    // all; three rounds make that race visible.
    using Clock = std::chrono::steady_clock;
    failpoint::disarm_all();
    Scheduler::shared().ensure_workers(4);
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    const QuantumCircuit logical = ghz(5);
    RoutingOptions opts;
    opts.layout_trials = 8;
    opts.layout_threads = 4;
    for (int round = 0; round < 3; ++round) {
        failpoint::ScopedFailpoint slow("layout.trial", "4*sleep(200)");
        LayoutSearch search(logical, dev.coupling, dist, opts);
        const LayoutSearchResult res =
            search.run(Clock::now() + std::chrono::milliseconds(100));
        EXPECT_GE(res.trials_consumed, 1) << round;
        EXPECT_LE(res.trials_consumed, 4) << round;
        EXPECT_TRUE(res.trials[res.best_trial].consumed) << round;
    }

    // An expired deadline leaves no completed trial to degrade to.
    LayoutSearch late(logical, dev.coupling, dist, opts);
    EXPECT_THROW(late.run(Clock::now()), TranspileDeadlineExceeded);
}

TEST(LayoutTrials, EveryTrialRunsExactlyOnce)
{
    // Slots drain one counter: each trial index is taken once, whatever
    // the thread count, and lands at its own index.
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    for (int threads : {1, 2, 8}) {
        failpoint::disarm_all();
        failpoint::ScopedFailpoint count("layout.trial", "trigger");
        RoutingOptions opts;
        opts.layout_trials = 16;
        opts.layout_threads = threads;
        const LayoutSearchResult res =
            search_and_route(ghz(5), dev.coupling, dist, opts);
        EXPECT_EQ(failpoint::hit_count("layout.trial"), 16u) << threads;
        EXPECT_EQ(res.trials_consumed, 16) << threads;
        ASSERT_EQ(res.trials.size(), 16u) << threads;
        for (int t = 0; t < 16; ++t) {
            EXPECT_EQ(res.trials[static_cast<std::size_t>(t)].trial, t);
            EXPECT_TRUE(res.trials[static_cast<std::size_t>(t)].consumed);
        }
    }
    failpoint::disarm_all();
}

TEST(LayoutTrials, ThrowingTrialPropagatesAndPoolSurvives)
{
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    for (int threads : {1, 4}) {
        RoutingOptions opts;
        opts.layout_trials = 8;
        opts.layout_threads = threads;
        {
            failpoint::disarm_all();
            failpoint::ScopedFailpoint fault("layout.trial",
                                             "2*throw(trial fault)");
            try {
                search_and_route(ghz(5), dev.coupling, dist, opts);
                FAIL() << "expected the trial's exception, threads "
                       << threads;
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("trial fault"),
                          std::string::npos);
            }
        }
        // The shared pool runs later work, and a later race is whole.
        std::atomic<bool> ran{false};
        Scheduler::shared().submit([&] { ran = true; });
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!ran.load() && std::chrono::steady_clock::now() < until)
            std::this_thread::yield();
        EXPECT_TRUE(ran.load()) << threads;
        EXPECT_EQ(search_and_route(ghz(5), dev.coupling, dist, opts)
                      .trials_consumed,
                  8)
            << threads;
    }
    failpoint::disarm_all();
}

TEST(LayoutTrials, NestedOrSerialRaceClaimsNoPoolTask)
{
    // A race fans out only from a top-level caller with
    // layout_threads != 1.  Every claim of any scheduler fires
    // scheduler.claim, so its hit count tells whether helpers ran.
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    const QuantumCircuit logical = ghz(5);
    RoutingOptions opts;
    opts.layout_trials = 8;
    opts.layout_threads = 4;
    const LayoutSearchResult want =
        search_and_route(logical, dev.coupling, dist, opts);
    auto race = [&](const RoutingOptions &o) {
        const LayoutSearchResult res =
            search_and_route(logical, dev.coupling, dist, o);
        EXPECT_EQ(res.trials_consumed, 8);
        EXPECT_EQ(res.initial.l2p(), want.initial.l2p());
    };
    failpoint::disarm_all();

    {
        // Control: a top-level race whose caller is stalled in its
        // first trial leaves its helpers time to be claimed.
        failpoint::ScopedFailpoint slow("layout.trial", "1*sleep(100)");
        failpoint::ScopedFailpoint claims("scheduler.claim", "trigger");
        race(opts);
        EXPECT_GE(failpoint::hit_count("scheduler.claim"), 1u);
    }
    failpoint::disarm_all();

    {
        RoutingOptions serial = opts;
        serial.layout_threads = 1;
        failpoint::ScopedFailpoint claims("scheduler.claim", "trigger");
        race(serial);
        EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 0u);
    }
    failpoint::disarm_all();

    {
        // Inside a task: the one claim is the task itself.
        Scheduler sched(1);
        failpoint::ScopedFailpoint claims("scheduler.claim", "trigger");
        std::atomic<bool> done{false};
        sched.submit([&] {
            race(opts);
            done = true;
        });
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!done.load() && std::chrono::steady_clock::now() < until)
            std::this_thread::yield();
        ASSERT_TRUE(done.load());
        EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 1u);
    }
    failpoint::disarm_all();

    {
        // Inside a held CallerSlot: the holder runs as a task.
        Scheduler sched(1);
        std::unique_ptr<Scheduler::CallerSlot> slot;
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        do {
            slot = std::make_unique<Scheduler::CallerSlot>(sched);
        } while (!slot->held() && std::chrono::steady_clock::now() < until);
        ASSERT_TRUE(slot->held());
        failpoint::ScopedFailpoint claims("scheduler.claim", "trigger");
        race(opts);
        EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 0u);
    }
    failpoint::disarm_all();
}

TEST(LayoutTrials, TrialSeedDerivationIsPureAndStable)
{
    // Trial 0 keeps the base seed: single-trial bit-compatibility.
    EXPECT_EQ(derive_trial_seed(0, 0), 0u);
    EXPECT_EQ(derive_trial_seed(1234, 0), 1234u);

    // Pure function: same inputs, same output, whatever order asked.
    std::vector<unsigned> forward, backward;
    for (int t = 0; t < 16; ++t)
        forward.push_back(derive_trial_seed(42, t));
    for (int t = 15; t >= 0; --t)
        backward.push_back(derive_trial_seed(42, t));
    for (int t = 0; t < 16; ++t)
        EXPECT_EQ(forward[t], backward[15 - t]);

    // Distinct trials decorrelate (no accidental collisions up front).
    for (int a = 0; a < 16; ++a)
        for (int b = a + 1; b < 16; ++b)
            EXPECT_NE(forward[a], forward[b]) << a << " vs " << b;

    // Distinct base seeds decorrelate the same trial.
    EXPECT_NE(derive_trial_seed(1, 3), derive_trial_seed(2, 3));
}

TEST(LayoutTrials, NestedInBatchRunsInlineAndMatchesSerial)
{
    // A sweep whose jobs each race 4 layout trials: as tickets on an
    // 8-worker context the inner searches run inside tasks and stay on
    // their job's worker, and the metrics must match direct calls
    // (trials fanned out on the shared pool) bit for bit.
    auto dev = std::make_shared<Backend>(montreal_backend());
    TranspileOptions opts;
    opts.layout_trials = 4;
    opts.layout_threads = 0; // whole pool, when available

    TranspileContext ctx(TranspileContext::Config{
        std::make_shared<DistanceCache>(), std::make_shared<Scheduler>(8),
        {}});
    const std::vector<const char *> names = {"qft_n15", "adder_n10",
                                             "bv_n19"};
    std::vector<TranspileTicket> tickets;
    for (const char *name : names)
        tickets.push_back(ctx.submit(benchmark_by_name(name), dev, opts));

    long passes_serial = 0, passes_nested = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        const TranspileResult a = transpile(benchmark_by_name(names[i]),
                                            *dev, opts);
        const SharedTranspileResult b = tickets[i].get();
        EXPECT_EQ(a.cx_total, b->cx_total);
        EXPECT_EQ(a.depth, b->depth);
        EXPECT_EQ(a.initial_l2p, b->initial_l2p);
        EXPECT_EQ(a.routing_stats.num_swaps, b->routing_stats.num_swaps);
        // The default router is kNassc, so nothing reuses; every job
        // reports its per-trial scoring passes plus the final route.
        EXPECT_FALSE(a.reused_search_route);
        EXPECT_FALSE(b->reused_search_route);
        passes_serial += a.full_route_passes;
        passes_nested += b->full_route_passes;
    }
    EXPECT_EQ(passes_serial, passes_nested);
    EXPECT_EQ(passes_nested, static_cast<long>(names.size()) * (4 + 1));
}

TEST(LayoutTrials, MoreTrialsNotWorseOnAggregate)
{
    // Racing seeds exists to buy quality: over a few Table I circuits
    // the 4-trial winner must not lose to the single seed in total
    // routed SWAPs (that is the whole point of the knob).
    Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    long swaps1 = 0, swaps4 = 0;
    for (const char *name : {"qft_n15", "adder_n10", "grover_n8"}) {
        QuantumCircuit logical = decompose_to_2q(benchmark_by_name(name));
        for (int trials : {1, 4}) {
            RoutingOptions opts;
            opts.layout_trials = trials;
            Layout init =
                sabre_initial_layout(logical, dev.coupling, dist, opts);
            RoutingOptions ropts;
            RoutingResult res =
                route_circuit(logical, dev.coupling, dist, init, ropts);
            (trials == 1 ? swaps1 : swaps4) += res.stats.num_swaps;
        }
    }
    EXPECT_LE(swaps4, swaps1);
}

} // namespace
} // namespace nassc
