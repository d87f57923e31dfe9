// Traced replay of transpile(): the same steps, in the same order, called
// through the library's public pass, route and distance functions with
// a timer around each.  The replay must reproduce transpile()'s output
// bit for bit; when a later change restructures the pipeline and the two
// disagree, the layer split is reported stale instead of failing the run.

#include <cstdio>
#include <type_traits>
#include <utility>

#include "bench.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"
#include "nassc/route/layout_search.h"

namespace pb {

using namespace nassc;

namespace {

/** Run `fn`, add its wall time to `acc`, return its value. */
template <typename Fn>
auto
timed(double &acc, Fn &&fn)
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += seconds_since(t0);
    } else {
        auto value = fn();
        acc += seconds_since(t0);
        return value;
    }
}

void
add_consolidate(LayerTotals &t, const ConsolidateStats &cs)
{
    t.consolidate_blocks += cs.blocks_considered;
    t.consolidate_replaced += cs.blocks_replaced;
}

QuantumCircuit
replay_one(const QuantumCircuit &qc, const Backend &backend,
           const TranspileOptions &opts, DistanceCache &cache,
           LayerTotals &t)
{
    // 1. Lower to <= 2q gates.
    QuantumCircuit c =
        timed(t.decompose_s, [&] { return decompose_to_2q(qc); });

    // 2. Pre-routing optimization.
    timed(t.opt1q_s, [&] { run_optimize_1q(c, Basis1q::kUGate); });
    add_consolidate(t, timed(t.pre_consolidate_s, [&] {
                        return consolidate_2q_blocks(c, Basis1q::kUGate);
                    }));

    // 3. Distances.
    DistanceRequest dreq = opts.noise_aware ? DistanceRequest::noise()
                                            : DistanceRequest::hops();
    if (backend.coupling.num_qubits() > opts.sparse_distance_threshold)
        dreq = dreq.as_sparse(opts.distance_row_budget_bytes);
    const SharedDistanceProvider dist =
        timed(t.resolve_s, [&] { return cache.provider(backend, dreq); });

    // 4. Layout search (scores every trial with a full routing pass).
    RoutingOptions ropts;
    ropts.algorithm = opts.router;
    ropts.extended_size = opts.extended_size;
    ropts.extended_weight = opts.extended_weight;
    ropts.enable_c2q = opts.enable_c2q;
    ropts.enable_commute1 = opts.enable_commute1;
    ropts.enable_commute2 = opts.enable_commute2;
    ropts.use_decay = opts.use_decay;
    ropts.seed = opts.seed;
    ropts.layout_trials = opts.layout_trials;
    ropts.layout_threads = opts.layout_threads;
    ropts.reuse_routing = opts.reuse_routing;
    ropts.region_radius = opts.region_radius;
    LayoutSearchResult search = timed(t.layout_s, [&] {
        return search_and_route(c, backend.coupling, *dist, ropts,
                                opts.layout_iterations);
    });

    // 5. Routing, unless the search's scoring pass is the route.
    const bool reused = search.routed.has_value();
    RoutingResult routed = timed(t.route_s, [&] {
        return reused ? std::move(*search.routed)
                      : route_circuit(c, backend.coupling, *dist,
                                      search.initial, ropts);
    });
    t.full_route_passes += search.scoring_passes + (reused ? 0 : 1);
    t.swaps += routed.stats.num_swaps;
    t.c2q_hits += routed.stats.c2q_hits;
    t.commute1_hits += routed.stats.commute1_hits;
    t.commute2_hits += routed.stats.commute2_hits;
    QuantumCircuit phys = std::move(routed.circuit);

    // 6. SWAP handling.
    if (opts.router == RoutingAlgorithm::kNassc) {
        add_consolidate(t, timed(t.swap_consolidate_s, [&] {
                            return consolidate_2q_blocks(phys,
                                                         Basis1q::kUGate);
                        }));
        timed(t.decompose_swaps_s, [&] {
            decompose_swaps(phys, opts.orientation_aware_decomposition);
        });
    } else {
        timed(t.decompose_swaps_s, [&] { decompose_swaps(phys, false); });
    }

    // 7. Basis translation + optimization loop to fixpoint.
    phys = timed(t.translate_s, [&] { return translate_to_basis(phys); });
    int last_size = -1;
    for (int r = 0; r < opts.opt_loop_rounds; ++r) {
        ++t.loop_rounds;
        timed(t.opt1q_s, [&] { run_optimize_1q(phys, Basis1q::kZsx); });
        t.cancel_removed += timed(t.cancel_s, [&] {
            return run_commutative_cancellation_to_fixpoint(phys);
        });
        add_consolidate(t, timed(t.loop_consolidate_s, [&] {
                            return consolidate_2q_blocks(phys,
                                                         Basis1q::kZsx);
                        }));
        phys = timed(t.translate_s, [&] { return translate_to_basis(phys); });
        timed(t.opt1q_s, [&] { run_optimize_1q(phys, Basis1q::kZsx); });
        const int size = static_cast<int>(phys.size());
        if (size == last_size)
            break;
        last_size = size;
    }
    return phys;
}

} // namespace

double
LayerTotals::timed_s() const
{
    return decompose_s + opt1q_s + pre_consolidate_s + swap_consolidate_s +
           loop_consolidate_s + cancel_s + translate_s + decompose_swaps_s +
           resolve_s + layout_s + route_s;
}

std::vector<std::uint64_t>
replay_list(const CompileList &list, LayerTotals &totals)
{
    DistanceCache cache;
    std::vector<std::uint64_t> fingerprints;
    const auto t0 = Clock::now();
    for (const CompileItem &item : list.items)
        fingerprints.push_back(replay_one(item.circuit, *list.backend,
                                          item.options, cache, totals)
                                   .fingerprint());
    totals.wall_s += seconds_since(t0);
    totals.distance = cache.stats();
    return fingerprints;
}

void
emit_layers(const LayerTotals &t, Report &r)
{
    const double consolidate_s =
        t.pre_consolidate_s + t.swap_consolidate_s + t.loop_consolidate_s;
    r.add("passes.consolidate_s", consolidate_s, "s");
    r.add("passes.pre_consolidate_s", t.pre_consolidate_s, "s");
    r.add("passes.swap_consolidate_s", t.swap_consolidate_s, "s");
    r.add("passes.consolidate_blocks",
          static_cast<double>(t.consolidate_blocks), "count");
    r.add("passes.consolidate_useful_ratio",
          t.consolidate_blocks
              ? static_cast<double>(t.consolidate_replaced) /
                    static_cast<double>(t.consolidate_blocks)
              : 0.0,
          "ratio");
    r.add("passes.loop_rounds", static_cast<double>(t.loop_rounds), "count");
    r.add("passes.cancel_s", t.cancel_s, "s");
    r.add("passes.cancel_removed", static_cast<double>(t.cancel_removed),
          "count");
    r.add("passes.opt1q_s", t.opt1q_s, "s");
    r.add("passes.translate_s", t.translate_s, "s");
    r.add("passes.decompose_s", t.decompose_s, "s");
    r.add("passes.decompose_swaps_s", t.decompose_swaps_s, "s");
    r.add("route.layout_s", t.layout_s, "s");
    r.add("route.route_s", t.route_s, "s");
    r.add("route.swaps", static_cast<double>(t.swaps), "count");
    r.add("route.full_route_passes", static_cast<double>(t.full_route_passes),
          "count");
    r.add("route.c2q_hits", static_cast<double>(t.c2q_hits), "count");
    r.add("route.commute1_hits", static_cast<double>(t.commute1_hits),
          "count");
    r.add("route.commute2_hits", static_cast<double>(t.commute2_hits),
          "count");
    const DistanceCache::Stats &d = t.distance;
    r.add("distance.resolve_s", t.resolve_s, "s");
    r.add("distance.rows_computed", static_cast<double>(d.rows_computed),
          "count");
    const double fetches = static_cast<double>(d.rows_computed + d.row_hits);
    r.add("distance.row_hit_ratio",
          fetches > 0 ? static_cast<double>(d.row_hits) / fetches : 0.0,
          "ratio");
    r.add("distance.peak_bytes", static_cast<double>(d.row_bytes_peak),
          "bytes");
}

void
emit_trace_meta(const LayerTotals &t, double untraced_compile_s,
                const std::vector<std::uint64_t> &replayed,
                const std::vector<TranspileResult> &reference, Report &r)
{
    std::size_t matched = 0;
    for (std::size_t i = 0; i < replayed.size() && i < reference.size(); ++i)
        if (replayed[i] == reference[i].circuit.fingerprint())
            ++matched;
    const bool fresh = matched == reference.size() &&
                       replayed.size() == reference.size();
    if (!fresh)
        std::fprintf(stderr,
                     "perfbench: layer split STALE: replay matched "
                     "transpile() on %zu of %zu outputs\n",
                     matched, reference.size());
    r.add("trace.replay_match", fresh ? 1.0 : 0.0, "bool");
    r.add("trace.unattributed_pct",
          t.wall_s > 0 ? 100.0 * (t.wall_s - t.timed_s()) / t.wall_s : 0.0,
          "%");
    r.add("trace.overhead_pct",
          untraced_compile_s > 0
              ? 100.0 * (t.wall_s - untraced_compile_s) / untraced_compile_s
              : 0.0,
          "%");
}

} // namespace pb
