// Tests for DistanceProvider (topo/distance_provider.h) and its
// integration through DistanceCache and transpile():
//
//  (a) metric correctness — hop rows are bit-identical to
//      CouplingMap::hop_row() on every seed backend and on randomized
//      graphs; noise rows under a tight byte budget (constant eviction)
//      are bitwise equal to an unbounded provider's;
//  (b) routing equivalence — transpiling with a two-row byte budget
//      reproduces the unbounded pipeline's circuit fingerprint and
//      RoutingStats bit for bit, on both metrics;
//  (c) provider mechanics — row caching, LRU byte-budget eviction,
//      pinned rows surviving eviction, thread-safe concurrent fetch;
//  (d) cache integration — calibration rotation drops exactly the old
//      generation's rows (evictions_invalidated) and recomputes each
//      touched row exactly once in the new generation, and a zero
//      row budget files no second provider beside the unbounded one;
//  (e) scale — routing a 1123-qubit heavy-hex device end-to-end keeps
//      distance storage proportional to the rows actually touched, far
//      below the n^2 footprint of a full matrix.

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/service/distance_cache.h"
#include "nassc/topo/backends.h"
#include "nassc/topo/distance_provider.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

// ---------------------------------------------------------------------
// (a) metric correctness

void
expect_hop_rows_bit_identical(const CouplingMap &cm)
{
    const DistanceProvider p(cm);
    const int n = cm.num_qubits();
    ASSERT_EQ(p.num_qubits(), n);
    for (int i = 0; i < n; ++i) {
        const DistanceRow r = p.row(i);
        ASSERT_TRUE(static_cast<bool>(r));
        // CouplingMap's own BFS is the independent reference.
        const std::vector<int> ref = cm.hop_row(i);
        for (int j = 0; j < n; ++j) {
            // Bitwise: both sides are BFS hop counts, one stored as
            // double.
            EXPECT_EQ(r[j], static_cast<double>(ref[j]))
                << "(" << i << "," << j << ")";
        }
    }
}

TEST(SparseHops, BitIdenticalOnSeedBackends)
{
    expect_hop_rows_bit_identical(montreal_backend().coupling);
    expect_hop_rows_bit_identical(linear_backend(25).coupling);
    expect_hop_rows_bit_identical(grid_backend(5, 5).coupling);
    expect_hop_rows_bit_identical(heavy_hex_backend(3).coupling);
    expect_hop_rows_bit_identical(
        grid_of_grids_backend(2, 2, 3, 3).coupling);
}

/** Connected random graph: a shuffled spanning tree plus extra edges. */
CouplingMap
random_connected_map(int n, int extra_edges, unsigned seed)
{
    std::mt19937 rng(seed);
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<std::pair<int, int>> edges;
    for (int i = 1; i < n; ++i) {
        std::uniform_int_distribution<int> parent(0, i - 1);
        edges.emplace_back(order[static_cast<std::size_t>(parent(rng))],
                           order[static_cast<std::size_t>(i)]);
    }
    std::uniform_int_distribution<int> any(0, n - 1);
    for (int e = 0; e < extra_edges; ++e) {
        const int a = any(rng), b = any(rng);
        if (a != b)
            edges.emplace_back(a, b); // duplicates dedup in the ctor
    }
    return CouplingMap(n, std::move(edges));
}

TEST(SparseHops, BitIdenticalOnRandomGraphs)
{
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        expect_hop_rows_bit_identical(
            random_connected_map(40 + static_cast<int>(seed) * 7,
                                 /*extra_edges=*/30, seed));
    }
}

TEST(SparseNoise, EvictionNeverChangesARow)
{
    // A two-row budget evicts on nearly every fetch, so each row below
    // is recomputed from scratch; it must match the unbounded
    // provider's row bit for bit, at every alpha triple.  That is why
    // the byte budget (and sparse_distance_threshold) never changes a
    // routing decision.
    for (const Backend &b : {montreal_backend(), heavy_hex_backend(3)}) {
        for (auto [a1, a2, a3] :
             {std::tuple{0.5, 0.0, 0.5}, std::tuple{1.0, 0.0, 0.0},
              std::tuple{0.3, 0.3, 0.4}}) {
            const DistanceProvider unbounded(b, a1, a2, a3);
            const DistanceProvider bounded(b, a1, a2, a3,
                                           2 * unbounded.row_bytes());
            const int n = b.coupling.num_qubits();
            for (int pass = 0; pass < 2; ++pass) {
                for (int i = 0; i < n; ++i) {
                    EXPECT_EQ(std::memcmp(bounded.row(i).data,
                                          unbounded.row(i).data,
                                          unbounded.row_bytes()),
                              0)
                        << b.name << " alphas (" << a1 << "," << a2
                        << "," << a3 << ") row " << i;
                }
            }
            EXPECT_GT(bounded.stats().rows_evicted, 0u);
            EXPECT_EQ(unbounded.stats().rows_evicted, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// (b) routing equivalence through transpile()

std::uint64_t
transpile_fingerprint(const QuantumCircuit &qc, const Backend &backend,
                      TranspileOptions opts, RoutingStats *stats = nullptr)
{
    DistanceCache cache; // private cache: no cross-test contamination
    const TranspileResult res = transpile(qc, backend, opts, cache);
    if (stats)
        *stats = res.routing_stats;
    return res.circuit.fingerprint();
}

/** `opts` with every montreal provider capped at two cached rows. */
TranspileOptions
two_row_budget(TranspileOptions opts)
{
    opts.sparse_distance_threshold = 0; // the budget applies to montreal
    opts.distance_row_budget_bytes = 2 * 27 * sizeof(double);
    return opts;
}

TEST(ProviderRouting, BoundedReproducesUnboundedBitForBit)
{
    const Backend montreal = montreal_backend();
    for (RoutingAlgorithm alg :
         {RoutingAlgorithm::kNassc, RoutingAlgorithm::kSabre}) {
        for (const QuantumCircuit &qc : {qft(10), ghz(12), qaoa_maxcut(12)}) {
            TranspileOptions unbounded;
            unbounded.router = alg;
            unbounded.sparse_distance_threshold = INT_MAX;
            const TranspileOptions bounded = two_row_budget(unbounded);

            RoutingStats us, bs;
            const std::uint64_t ufp =
                transpile_fingerprint(qc, montreal, unbounded, &us);
            const std::uint64_t bfp =
                transpile_fingerprint(qc, montreal, bounded, &bs);
            EXPECT_EQ(ufp, bfp);
            EXPECT_EQ(us.num_swaps, bs.num_swaps);
            EXPECT_EQ(us.flagged_swaps, bs.flagged_swaps);
            EXPECT_EQ(us.c2q_hits, bs.c2q_hits);
            EXPECT_EQ(us.commute1_hits, bs.commute1_hits);
            EXPECT_EQ(us.commute2_hits, bs.commute2_hits);
            EXPECT_EQ(us.moved_1q, bs.moved_1q);
            EXPECT_EQ(us.forced_moves, bs.forced_moves);
        }
    }
}

TEST(ProviderRouting, BoundedNoiseMetricReproducesUnbounded)
{
    // Bounded and unbounded noise rows are bitwise equal, so every
    // layout-search configuration routes identically through either.
    const Backend montreal = montreal_backend();
    for (int trials : {1, 4}) {
        TranspileOptions unbounded;
        unbounded.noise_aware = true;
        unbounded.layout_trials = trials;
        unbounded.sparse_distance_threshold = INT_MAX;
        const TranspileOptions bounded = two_row_budget(unbounded);
        for (const QuantumCircuit &qc : {qft(8), ghz(10)}) {
            EXPECT_EQ(transpile_fingerprint(qc, montreal, unbounded),
                      transpile_fingerprint(qc, montreal, bounded))
                << "layout_trials " << trials;
        }
    }
}

TEST(ProviderRouting, RegionRadiusCoveringDeviceIsBitIdentical)
{
    // A radius at least the device diameter marks every qubit in-region,
    // so the extended set filter admits everything — bit-identical to
    // region_radius = 0.
    const Backend montreal = montreal_backend();
    TranspileOptions off;
    TranspileOptions wide;
    wide.region_radius = 64; // montreal diameter is far below this
    for (const QuantumCircuit &qc : {qft(10), qaoa_maxcut(12)}) {
        EXPECT_EQ(transpile_fingerprint(qc, montreal, off),
                  transpile_fingerprint(qc, montreal, wide));
    }
}

TEST(ProviderRouting, TightRegionRadiusStillRoutesValidCircuits)
{
    // A tight region prunes lookahead, never correctness: every 2q gate
    // in the routed circuit must still touch a coupled pair.
    const Backend backend = heavy_hex_backend(3);
    TranspileOptions opts;
    opts.region_radius = 2;
    DistanceCache cache;
    const TranspileResult res =
        transpile(qaoa_maxcut(14), backend, opts, cache);
    EXPECT_GT(res.circuit.size(), 0u);
    for (const Gate &g : res.circuit.gates()) {
        if (g.qubits.size() == 2 && g.kind != OpKind::kBarrier) {
            EXPECT_TRUE(
                backend.coupling.connected(g.qubits[0], g.qubits[1]))
                << "2q gate on uncoupled pair (" << g.qubits[0] << ","
                << g.qubits[1] << ")";
        }
    }
}

// ---------------------------------------------------------------------
// (c) provider mechanics

TEST(SparseProvider, CountsRowComputesAndHits)
{
    const CouplingMap cm = grid_backend(4, 4).coupling;
    const DistanceProvider p(cm);
    EXPECT_EQ(p.stats().rows_computed, 0u);

    (void)p.row(3);
    (void)p.row(3);
    (void)p.row(7);
    const DistanceProviderStats s = p.stats();
    EXPECT_EQ(s.rows_computed, 2u);
    EXPECT_EQ(s.row_hits, 1u);
    EXPECT_EQ(s.rows_evicted, 0u);
    EXPECT_EQ(s.resident_bytes, 2 * p.row_bytes());
    EXPECT_EQ(s.peak_bytes, 2 * p.row_bytes());
}

TEST(SparseProvider, ByteBudgetEvictsLeastRecentlyUsed)
{
    const CouplingMap cm = grid_backend(4, 4).coupling;
    const DistanceProvider p(cm, /*row_budget_bytes=*/2 *
                                     (16 * sizeof(double)));
    (void)p.row(0);
    (void)p.row(1);
    (void)p.row(2); // evicts row 0 (LRU)
    DistanceProviderStats s = p.stats();
    EXPECT_EQ(s.rows_computed, 3u);
    EXPECT_EQ(s.rows_evicted, 1u);
    EXPECT_EQ(s.resident_bytes, 2 * p.row_bytes());
    // The new row is published before the LRU trim, so the high-water
    // mark transiently held budget + one row.
    EXPECT_EQ(s.peak_bytes, 3 * p.row_bytes());

    // Row 0 was evicted: touching it again recomputes (not a hit)...
    (void)p.row(0);
    s = p.stats();
    EXPECT_EQ(s.rows_computed, 4u);
    EXPECT_EQ(s.row_hits, 0u);

    // ...and now that it is resident again, a re-touch is a pure hit.
    (void)p.row(0);
    EXPECT_EQ(p.stats().row_hits, 1u);
}

TEST(SparseProvider, PinnedRowSurvivesEviction)
{
    const CouplingMap cm = grid_backend(4, 4).coupling;
    // Budget of ONE row: every new row evicts the previous one.
    const DistanceProvider p(cm, 16 * sizeof(double));

    const DistanceRow pinned = p.row(5);
    for (int src : {1, 2, 3, 8, 9})
        (void)p.row(src); // churn the cache well past the budget
    EXPECT_GE(p.stats().rows_evicted, 4u);

    // The pin keeps the evicted row's storage alive and intact.
    const std::vector<int> ref = cm.hop_row(5);
    for (int j = 0; j < 16; ++j)
        EXPECT_EQ(pinned[j], ref[j]);
}

TEST(SparseProvider, PinnedRowOutlivesATrimmingProvider)
{
    // Past 1 MiB of resident rows the destructor trims the heap; a row
    // pinned by a holder must survive that intact.
    const CouplingMap cm = heavy_hex_backend(21).coupling;
    const int n = cm.num_qubits();
    DistanceRow pinned;
    {
        const DistanceProvider p(cm);
        for (int src = 0; src < 160; ++src)
            (void)p.row(src);
        ASSERT_GE(p.stats().resident_bytes, std::size_t{1} << 20);
        pinned = p.row(7);
    }
    const std::vector<int> ref = cm.hop_row(7);
    for (int j = 0; j < n; ++j)
        ASSERT_EQ(pinned[j], static_cast<double>(ref[j])) << j;
}

TEST(SparseProvider, ConcurrentRowFetchIsSafeAndPublishesOnce)
{
    const CouplingMap cm = grid_backend(5, 5).coupling;
    const DistanceProvider p(cm);
    const int n = cm.num_qubits();
    std::vector<std::vector<int>> ref;
    for (int i = 0; i < n; ++i)
        ref.push_back(cm.hop_row(i));

    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int pass = 0; pass < 3; ++pass) {
                for (int i = 0; i < n; ++i) {
                    const int src = (i + t * 3) % n;
                    const DistanceRow r = p.row(src);
                    for (int j = 0; j < n; ++j)
                        if (r[j] != ref[src][j])
                            mismatches.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Racing computes are benign duplicates; exactly one install per row
    // is ever counted.
    EXPECT_EQ(p.stats().rows_computed, static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------------
// (d) DistanceCache integration: rotation invalidation

TEST(DistanceCacheRotation, DropsOldRowsAndRecomputesExactlyOnce)
{
    DistanceCache cache;
    Backend b = montreal_backend();
    const DistanceRequest req = DistanceRequest::hops().as_sparse();

    const SharedDistanceProvider p1 = cache.provider(b, req);
    for (int src : {0, 1, 2, 3, 4})
        (void)p1->row(src);
    DistanceCache::Stats s = cache.stats();
    EXPECT_EQ(s.rows_computed, 5u);
    EXPECT_EQ(s.evictions_invalidated, 0u);

    // Rotate the calibration: same backend NAME, different cache_key.
    b.calibration.error_cx.begin()->second *= 1.5;
    const SharedDistanceProvider p2 = cache.provider(b, req);
    s = cache.stats();
    EXPECT_EQ(s.evictions_invalidated, 1u);
    EXPECT_EQ(s.computations, 2u);

    // The new generation recomputes each touched row EXACTLY once: five
    // retired rows plus five fresh ones, and re-touching is a pure hit.
    for (int src : {0, 1, 2, 3, 4})
        (void)p2->row(src);
    EXPECT_EQ(cache.stats().rows_computed, 10u);
    for (int src : {0, 1, 2, 3, 4})
        (void)p2->row(src);
    s = cache.stats();
    EXPECT_EQ(s.rows_computed, 10u);
    EXPECT_EQ(s.row_hits, 5u);

    // Row counters are monotone across the rotation (retired rows stay
    // counted), and the old provider handle remains fully usable.
    EXPECT_EQ((*p1).row(0)[1], (*p2).row(0)[1]);
}

TEST(DistanceCacheRotation, SameKeyDoesNotInvalidate)
{
    DistanceCache cache;
    const Backend b = montreal_backend();
    const DistanceRequest req = DistanceRequest::hops().as_sparse();
    (void)cache.provider(b, req);
    (void)cache.provider(b, req);
    const DistanceCache::Stats s = cache.stats();
    EXPECT_EQ(s.computations, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.evictions_invalidated, 0u);
}

TEST(DistanceCacheKey, ZeroBudgetSharesTheUnboundedProvider)
{
    // as_sparse(0) asks for the unbounded row cache, so it is the same
    // provider as the plain request; a real budget is a second one.
    DistanceCache cache;
    const Backend b = montreal_backend();
    const SharedDistanceProvider plain =
        cache.provider(b, DistanceRequest::hops());
    EXPECT_EQ(cache.provider(b, DistanceRequest::hops().as_sparse()), plain);
    EXPECT_EQ(cache.provider(b, DistanceRequest::hops().as_sparse(0)), plain);
    EXPECT_NE(cache.provider(b, DistanceRequest::hops().as_sparse(4096)),
              plain);
    EXPECT_EQ(DistanceRequest::noise().as_sparse().key(),
              DistanceRequest::noise().key());
    const DistanceCache::Stats s = cache.stats();
    EXPECT_EQ(s.computations, 2u);
    EXPECT_EQ(s.entries, 2u);
}

// ---------------------------------------------------------------------
// (e) scale: 1000+ qubits end to end

/** Route ghz(24) on heavy_hex(d); returns (rows touched, device size). */
std::pair<std::size_t, int>
routed_row_footprint(int d)
{
    const Backend device = heavy_hex_backend(d);
    const int n = device.coupling.num_qubits();
    DistanceCache cache;
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre; // fastest full pipeline
    // Default options (threshold 256, budget 0): the production
    // configuration for these devices.
    const TranspileResult res = transpile(ghz(24), device, opts, cache);
    EXPECT_GT(res.circuit.size(), 0u);

    const DistanceCache::Stats s = cache.stats();
    const std::size_t row_bytes = static_cast<std::size_t>(n) * 8;
    // Distance storage is exactly proportional to rows touched, with no
    // eviction churn when no byte budget is set.
    EXPECT_EQ(s.row_bytes, s.rows_computed * row_bytes);
    EXPECT_EQ(s.row_bytes_peak, s.row_bytes);
    EXPECT_LT(s.rows_computed, static_cast<std::size_t>(n));
    return {s.rows_computed, n};
}

TEST(ProviderScale, HeavyHexRoutesWithRowProportionalMemory)
{
    // Routing a fixed 24-qubit workload end to end on Condor-class and
    // beyond-Condor-class lattices: the rows the pipeline touches track
    // the workload's walk, not the device, so the resident fraction of
    // a full n^2 matrix SHRINKS as the topology axis scales (the
    // measured footprint is ~0.45 * n^2 at 1123 qubits and ~0.27 *
    // n^2 at 4243 — deterministic, seeded pipeline).
    const auto [rows_1k, n_1k] = routed_row_footprint(21);
    ASSERT_EQ(n_1k, 1123);
    EXPECT_LT(rows_1k, static_cast<std::size_t>(n_1k) / 2);

    const auto [rows_4k, n_4k] = routed_row_footprint(41);
    ASSERT_EQ(n_4k, 4243);
    EXPECT_LT(rows_4k, static_cast<std::size_t>(n_4k) / 3);

    // Sublinear growth across a 3.8x device-size jump.
    EXPECT_LT(static_cast<double>(rows_4k) / n_4k,
              static_cast<double>(rows_1k) / n_1k);
}

} // namespace
} // namespace nassc
