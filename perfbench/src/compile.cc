// The compile workloads (table1_compile, heavyhex_route): a circuit list
// transpiled serially in process, pass after pass, each pass through a
// fresh TranspileContext so every pass resolves its own distances.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "nassc/ir/fnv1a.h"

namespace pb {

using namespace nassc;

namespace {

/** Cache hits requested per pass: enough that p99 has ten beyond it. */
constexpr int kHitsPerPass = 1000;
/** One pass is planned per this many seconds of --seconds.  Both lists
 *  take 10-15 s a pass on the measuring host, so 30 s gives 2 passes. */
constexpr double kNominalPassSeconds = 12.0;

/**
 * One pass: every item submitted once to a fresh context (each a miss
 * that transpiles; its latency goes to item_us[i]), then the whole list
 * again until kHitsPerPass requests have been served from the context's
 * result cache.
 */
std::vector<TranspileResult>
compile_pass(const CompileList &list, double &seconds,
             std::vector<std::vector<double>> &item_us,
             Segments &hit_us, Outcome &out)
{
    TranspileContext ctx(
        TranspileContext::Config{std::make_shared<DistanceCache>(), nullptr,
                                 {}});
    std::vector<SharedTranspileResult> shared;
    const auto p0 = Clock::now();
    item_us.resize(list.items.size());
    for (std::size_t i = 0; i < list.items.size(); ++i) {
        const CompileItem &item = list.items[i];
        ++out.attempted;
        const auto t0 = Clock::now();
        try {
            shared.push_back(
                ctx.submit(item.circuit, list.backend, item.options).get());
            item_us[i].push_back(us_between(t0, Clock::now()));
        } catch (const std::exception &e) {
            out.fail(item.name + ": " + e.what());
            shared.push_back(std::make_shared<const TranspileResult>());
        }
    }
    seconds = seconds_since(p0);

    const std::size_t n = list.items.size();
    hit_us.emplace_back();
    for (std::size_t k = 0; k < static_cast<std::size_t>(kHitsPerPass); ++k) {
        const CompileItem &item = list.items[k % n];
        ++out.attempted;
        const auto t0 = Clock::now();
        const TranspileTicket ticket =
            ctx.submit(item.circuit, list.backend, item.options);
        ticket.get();
        hit_us.back().push_back(us_between(t0, Clock::now()));
        if (ticket.source() != TicketSource::kCacheHit)
            out.fail(item.name + ": repeat request was not a cache hit");
    }

    std::vector<TranspileResult> results;
    for (const SharedTranspileResult &r : shared)
        results.push_back(*r);
    return results;
}

long long
outputs_fingerprint(const std::vector<TranspileResult> &results)
{
    Fnv1a fp;
    for (const TranspileResult &r : results)
        fp.u64(r.circuit.fingerprint());
    return static_cast<long long>(fp.value());
}

} // namespace

void
run_compile_workload(const Args &args, Report &report, Outcome &out,
                     ExactCounts &exact)
{
    // Set-up, repeated: devices, circuits, optimize_only() baselines.
    std::vector<double> setup_s;
    CompileList list;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        list = build_compile_list(args.workload, args.seed);
        setup_s.push_back(seconds_since(t0));
    }

    // The pass count follows --seconds alone, so a slow spell of the
    // host cannot change the run's shape (a traced run makes exactly one
    // untraced pass, for the overhead).
    const int passes =
        args.trace ? 1
                   : std::max(1, static_cast<int>(args.seconds /
                                                  kNominalPassSeconds));
    std::vector<double> pass_s;
    Segments item_us, hit_us; // per item; per pass
    std::vector<TranspileResult> first;
    for (int pass = 0; pass < passes; ++pass) {
        double s = 0.0;
        std::vector<TranspileResult> results =
            compile_pass(list, s, item_us, hit_us, out);
        pass_s.push_back(s);
        const ListTotals totals = list_totals(list, results);
        exact.record("cx_total", totals.cx_total, out);
        exact.record("depth_total", totals.depth_total, out);
        exact.record("outputs_fingerprint", outputs_fingerprint(results), out);
        if (first.empty())
            first = std::move(results);
    }

    // One miss sample per item, its median over passes: the list holds
    // too few items for a tail estimate, so damp the per-pass noise.
    Segments miss_us(1);
    for (const std::vector<double> &us : item_us)
        miss_us[0].push_back(median(us));

    for (std::size_t i = 0; i < list.items.size(); ++i)
        check_output(list.items[i].name, list.items[i].circuit, first[i],
                     list.backend->coupling, out);
    out.attempted += static_cast<long>(list.items.size());

    const ListTotals totals = list_totals(list, first);
    std::printf("%s: %zu circuits on %s (%d qubits), %zu hits; pass "
                "seconds:",
                args.workload.c_str(), list.items.size(),
                list.backend->name.c_str(),
                list.backend->coupling.num_qubits(),
                hit_us.size() * kHitsPerPass);
    for (double s : pass_s)
        std::printf(" %.3f", s);
    std::printf("\n");
    if (!args.trace) {
        emit_end_to_end(setup_s, median(pass_s), totals,
                        self_peak_rss_mb(), hit_us, miss_us, report);
        return;
    }

    // Traced: replay for the pass/route/distance split, then the same
    // list over the wire for the serve/service split.
    LayerTotals layers;
    const std::vector<std::uint64_t> replayed = replay_list(list, layers);
    exact.record("route.swaps", layers.swaps, out);
    exact.record("passes.consolidate_blocks", layers.consolidate_blocks, out);
    exact.record("distance.rows_computed",
                 static_cast<long long>(layers.distance.rows_computed), out);
    const ServeSplit split = wire_pass_in_process(args, list, first, out);
    exact.record("service.transpiles", split.transpiles, out);
    emit_layers(layers, report);
    emit_qasm_costs(first, report, out);
    emit_serve_split(split, report);
    emit_trace_meta(layers, pass_s.front(), replayed, first, report);
}

} // namespace pb
