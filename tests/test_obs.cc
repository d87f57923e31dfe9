// Observability tests (obs/metrics.h, obs/trace.h, obs/event_log.h and
// their serving-stack integration):
//
//  (a) histogram bucketing — the fixed log2 bounds place values in the
//      right buckets and snapshots count them;
//  (b) span lifecycle — nested TraceSpans close (open_spans back to 0)
//      while unwinding failpoint-injected throws and deadline expiry,
//      through the real TranspileService/Scheduler propagation seam,
//      and a layout race's helper tasks record onto the caller's
//      tracer;
//  (c) determinism — transpiled output is bit-identical with tracing
//      armed vs off, across the Table I golden circuits and both
//      routers (spans read clocks and append to side buffers only);
//  (d) the wire — `option trace=1` returns per-stage span lines
//      covering queue-wait, layout (per-trial), routing, and
//      cache-insert on a miss, and a decode/admission hit-path trace
//      on `status cache_hit`; untraced requests carry no span lines;
//  (e) the bounded event log — drop-oldest with a visible dropped
//      counter, and JSON escaping in format_event.

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/obs/event_log.h"
#include "nassc/obs/metrics.h"
#include "nassc/obs/trace.h"
#include "nassc/route/layout_search.h"
#include "nassc/serve/client.h"
#include "nassc/serve/protocol.h"
#include "nassc/serve/server.h"
#include "nassc/service/distance_cache.h"
#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"
#include "nassc/service/scheduler.h"
#include "nassc/service/transpile_service.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

std::string
socket_path(const std::string &suffix)
{
    return "/tmp/nassc_obs_" + std::to_string(::getpid()) + "_" + suffix +
           ".sock";
}

std::shared_ptr<const Backend>
shared_montreal()
{
    static auto backend =
        std::make_shared<const Backend>(montreal_backend());
    return backend;
}

std::map<std::string, std::uint64_t>
span_map(const ServeResponse &resp)
{
    std::map<std::string, std::uint64_t> m;
    for (const auto &span : resp.spans)
        m[span.first] += 1; // count occurrences; durations are timing
    return m;
}

// ------------------------------------------------------------ buckets

TEST(ObsHistogram, LogBucketsPlaceValuesExactly)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("t_us", "test");
    // Inclusive upper edges: us in (2^(k-1), 2^k] -> finite bucket k.
    h.observe(0);       // bucket 0 (le 1)
    h.observe(1);       // bucket 0
    h.observe(2);       // bucket 1 (le 2)
    h.observe(3);       // bucket 2 (le 4)
    h.observe(4);       // bucket 2
    h.observe(1024);    // bucket 10
    h.observe(1025);    // bucket 11
    h.observe(obs::bucket_bound(25));     // last finite bucket
    h.observe(obs::bucket_bound(25) + 1); // +Inf
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.buckets[0], 2u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_EQ(s.buckets[10], 1u);
    EXPECT_EQ(s.buckets[11], 1u);
    EXPECT_EQ(s.buckets[25], 1u);
    EXPECT_EQ(s.buckets[obs::kFiniteBuckets], 1u);
    EXPECT_EQ(s.count, 9u);
}

TEST(ObsMetrics, StatsViewReadsUnlabeledCounterAndGaugeRows)
{
    obs::MetricsRegistry reg;
    reg.counter("nassc_a_total", "registry counter").inc(4);
    reg.histogram("nassc_h_us", "histogram").observe(3);
    reg.counter("other_total", "no nassc_ prefix").inc();
    std::string body = reg.render();
    obs::render_row(body, "gauge", "b", "row gauge", 6);
    obs::render_row(body, "counter", "requests", "row counter", 2);
    obs::render_row(body, "gauge", "cache_bytes", "row gauge", 9);
    EXPECT_NE(body.find("\nnassc_requests_total 2\n"), std::string::npos);
    EXPECT_NE(body.find("\nnassc_cache_bytes 9\n"), std::string::npos);
    body += "# TYPE nassc_negative gauge\n"
            "nassc_negative -1\n"
            "# TYPE nassc_huge_total counter\n"
            "nassc_huge_total 99999999999999999999\n";

    // Histogram _bucket/_sum/_count lines, the negative gauge, the
    // unprefixed counter and the overflowing sample are not rows.
    const std::map<std::string, std::uint64_t> want = {
        {"a", 4}, {"b", 6}, {"requests", 2}, {"cache_bytes", 9}};
    EXPECT_EQ(obs::stats_from_metrics(body), want);
}

TEST(ObsRegistry, TypeMismatchThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("dual", "as counter");
    EXPECT_THROW(reg.histogram("dual", "as histogram"), std::logic_error);
    // Same name + same type is find-not-create.
    EXPECT_EQ(&reg.counter("dual", "again"), &reg.counter("dual", "again"));
}

// ------------------------------------------------------ span lifecycle

TEST(ObsTrace, NestedSpansCloseWhileUnwinding)
{
    auto tracer = std::make_shared<obs::Tracer>("unwind-test");
    {
        obs::TraceScope scope(tracer);
        try {
            obs::TraceSpan outer("outer");
            obs::TraceSpan inner("inner");
            throw std::runtime_error("boom");
        } catch (const std::runtime_error &) {
        }
    }
    EXPECT_EQ(tracer->open_spans(), 0);
    const auto spans = tracer->spans();
    ASSERT_EQ(spans.size(), 2u);
    // Destruction order: inner closes (and records) before outer.
    EXPECT_EQ(spans[0].first, "inner");
    EXPECT_EQ(spans[1].first, "outer");
}

TEST(ObsTrace, RaceHelperSpansLandOnTheCallersTracer)
{
    // submit() hands the submitter's tracer to the task, so trials run
    // by a top-level race's helpers report to the caller's request.  A
    // stalled first trial gives the helpers time to be claimed.
    failpoint::disarm_all();
    failpoint::ScopedFailpoint slow("layout.trial", "1*sleep(100)");
    const Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.layout_trials = 8;
    opts.layout_threads = 4;
    auto tracer = std::make_shared<obs::Tracer>("race-test");
    {
        obs::TraceScope scope(tracer);
        search_and_route(ghz(5), dev.coupling, dist, opts);
    }
    int trial_spans = 0;
    for (const auto &span : tracer->spans())
        trial_spans += span.first == "layout_trial" ? 1 : 0;
    EXPECT_EQ(trial_spans, 8);
    EXPECT_EQ(tracer->open_spans(), 0);
    failpoint::disarm_all();
}

TEST(ObsTrace, ServiceSpansCloseUnderFailpointThrow)
{
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(2);
    TranspileService service(sopts);
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;

    auto tracer = std::make_shared<obs::Tracer>("fp-throw");
    {
        obs::TraceScope scope(tracer);
        failpoint::ScopedFailpoint fp("service.transpile",
                                      "1*throw(injected)");
        TranspileTicket ticket = service.submit(ghz(5), shared_montreal(),
                                                opts);
        EXPECT_THROW(ticket.get(), std::exception);
    }
    // The worker's transpile span closed during unwinding and recorded
    // itself; nothing stayed open.
    EXPECT_EQ(tracer->open_spans(), 0);
    std::map<std::string, std::uint64_t> names;
    for (const auto &span : tracer->spans())
        ++names[span.first];
    EXPECT_EQ(names.count("admission"), 1u);
    EXPECT_EQ(names.count("transpile"), 1u);
}

TEST(ObsTrace, ServiceSpansCloseUnderDeadlineExpiry)
{
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(2);
    TranspileService service(sopts);
    RequestPolicy policy;
    policy.deadline_ms = 1; // expires mid-search on a 15q circuit

    auto tracer = std::make_shared<obs::Tracer>("deadline");
    {
        obs::TraceScope scope(tracer);
        TranspileTicket ticket = service.submit(
            benchmark_by_name("qft_n15"), shared_montreal(), {}, policy);
        try {
            ticket.get(); // degraded result or throw — both legal
        } catch (const TranspileDeadlineExceeded &) {
        }
    }
    EXPECT_EQ(tracer->open_spans(), 0);
}

// --------------------------------------------------------- determinism

TEST(ObsTrace, TracingOnVsOffIsBitIdentical)
{
    for (const char *name : {"vqe_n8", "qpe_n9", "adder_n10"}) {
        const QuantumCircuit qc = benchmark_by_name(name);
        for (RoutingAlgorithm router :
             {RoutingAlgorithm::kNassc, RoutingAlgorithm::kSabre}) {
            TranspileOptions opts;
            opts.router = router;
            opts.seed = 7;

            DistanceCache cold_a;
            const TranspileResult plain =
                transpile(qc, montreal_backend(), opts, cold_a);

            auto tracer = std::make_shared<obs::Tracer>("determinism");
            DistanceCache cold_b;
            TranspileResult traced = [&] {
                obs::TraceScope scope(tracer);
                return transpile(qc, montreal_backend(), opts, cold_b);
            }();

            EXPECT_EQ(to_qasm(plain.circuit), to_qasm(traced.circuit))
                << name;
            EXPECT_EQ(plain.circuit.fingerprint(),
                      traced.circuit.fingerprint())
                << name;
            EXPECT_EQ(plain.initial_l2p, traced.initial_l2p) << name;
            EXPECT_EQ(plain.routing_stats.num_swaps,
                      traced.routing_stats.num_swaps)
                << name;
            // The traced run actually traced something.
            EXPECT_FALSE(tracer->spans().empty()) << name;
        }
    }
}

// ------------------------------------------------------------ the wire

TEST(ObsWire, TraceOptionReturnsStageSpans)
{
    ServerOptions options;
    options.unix_path = socket_path("trace");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(server.unix_path());

    const std::string qasm = to_qasm(benchmark_by_name("vqe_n8"));
    // layout_trials > 1 races several trials; a served request runs
    // them on its own task's thread, and each completed trial records
    // a span on this request's tracer.
    const std::vector<std::pair<std::string, std::string>> traced_opts = {
        {"router", "nassc"}, {"seed", "3"}, {"layout_trials", "4"},
        {"trace", "1"}};

    // Miss path: every documented stage appears.
    const ServeResponse miss =
        client.transpile_qasm(qasm, "ibmq_montreal", traced_opts);
    EXPECT_EQ(miss.source, "transpiled");
    EXPECT_FALSE(miss.trace_id.empty());
    const std::map<std::string, std::uint64_t> stages = span_map(miss);
    for (const char *stage :
         {"decode", "qasm_parse", "admission", "queue_wait",
          "distance_resolve", "layout", "routing", "cache_insert",
          "transpile"})
        EXPECT_TRUE(stages.count(stage)) << "missing span " << stage;
    // Per-trial spans: one per completed layout trial, several trials.
    ASSERT_TRUE(stages.count("layout_trial"));
    EXPECT_GT(stages.at("layout_trial"), 1u);

    // Hit path: same request again reports the cache_hit trace
    // (decode + admission — the request never reaches a worker, and its
    // text matches the entry's, so it is never parsed).
    const ServeResponse hit =
        client.transpile_qasm(qasm, "ibmq_montreal", traced_opts);
    EXPECT_EQ(hit.source, "cache_hit");
    EXPECT_FALSE(hit.trace_id.empty());
    EXPECT_NE(hit.trace_id, miss.trace_id);
    const std::map<std::string, std::uint64_t> hit_stages = span_map(hit);
    EXPECT_TRUE(hit_stages.count("decode"));
    EXPECT_TRUE(hit_stages.count("admission"));
    EXPECT_FALSE(hit_stages.count("queue_wait"));
    EXPECT_FALSE(hit_stages.count("qasm_parse"));
    EXPECT_EQ(hit.qasm, miss.qasm);

    // trace=0 (and absent) responses carry no spans and no trace-id,
    // and the QASM body is bit-identical to the traced one.
    const ServeResponse off = client.transpile_qasm(
        qasm, "ibmq_montreal",
        {{"router", "nassc"}, {"seed", "3"}, {"layout_trials", "4"},
         {"trace", "0"}});
    EXPECT_TRUE(off.trace_id.empty());
    EXPECT_TRUE(off.spans.empty());
    EXPECT_EQ(off.qasm, miss.qasm);

    server.stop();
}

TEST(ObsWire, MetricsVerbRendersGlobalRegistry)
{
    ServerOptions options;
    options.unix_path = socket_path("metrics");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(server.unix_path());

    client.transpile_qasm(to_qasm(ghz(5)), "ibmq_montreal",
                          {{"router", "sabre"}});
    const std::string body = client.metrics();
    EXPECT_NE(body.find("# TYPE nassc_requests_total counter"),
              std::string::npos);
    EXPECT_NE(body.find("nassc_requests_total " +
                        std::to_string(server.service().stats().requests) +
                        "\n"),
              std::string::npos);
    EXPECT_NE(body.find("nassc_queue_wait_us_bucket{le=\"+Inf\"}"),
              std::string::npos);

    // Each metric is written once: one `# TYPE` line per name.
    std::map<std::string, int> type_lines;
    std::size_t pos = 0;
    while ((pos = body.find("# TYPE ", pos)) != std::string::npos) {
        const std::size_t end = body.find(' ', pos + 7);
        ++type_lines[body.substr(pos + 7, end - pos - 7)];
        pos = end;
    }
    EXPECT_GT(type_lines.size(), 23u);
    for (const auto &kv : type_lines)
        EXPECT_EQ(kv.second, 1) << kv.first;
    server.stop();
}

// ------------------------------------------------------------ event log

TEST(ObsEventLog, DropsOldestPastCapacityAndCounts)
{
    obs::EventLog log;
    log.set_capacity(3);
    for (int i = 0; i < 5; ++i)
        log.append("e" + std::to_string(i));
    EXPECT_EQ(log.appended(), 5u);
    EXPECT_EQ(log.dropped(), 2u);
    const std::vector<std::string> lines = log.drain();
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines.front(), "e2");
    EXPECT_EQ(lines.back(), "e4");
    EXPECT_TRUE(log.drain().empty());
}

TEST(ObsEventLog, FormatEventEscapesAndMixesFields)
{
    const std::string line = obs::format_event(
        "slow_request", {{"trace", "ab\"c\n"}, {"status", "ok"}},
        {{"us", 12345}});
    EXPECT_EQ(line.find('\n'), std::string::npos) << "JSONL must be 1 line";
    EXPECT_NE(line.find("\"kind\":\"slow_request\""), std::string::npos);
    EXPECT_NE(line.find("\"trace\":\"ab\\\"c\\n\""), std::string::npos);
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(line.find("\"us\":12345"), std::string::npos);
    EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
}

} // namespace
} // namespace nassc
