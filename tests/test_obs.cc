// Observability tests (obs/metrics.h, obs/trace.h, obs/event_log.h and
// their serving-stack integration):
//
//  (a) histogram bucketing — the fixed log2 bounds place values in the
//      right buckets, snapshots count them, and merge_prometheus of N
//      separately-rendered registries is BUCKET-EXACT (equal to one
//      registry that observed the union);
//  (b) span lifecycle — nested TraceSpans close (open_spans back to 0)
//      while unwinding failpoint-injected throws and deadline expiry,
//      through the real TranspileService/Scheduler propagation seam;
//  (c) determinism — transpiled output is bit-identical with tracing
//      armed vs off, across the Table I golden circuits and both
//      routers (spans read clocks and append to side buffers only);
//  (d) the wire — `option trace=1` returns per-stage span lines
//      covering queue-wait, layout (per-trial), routing, and
//      cache-insert on a miss, and a decode/admission hit-path trace
//      on `status cache_hit`; untraced requests carry no span lines;
//  (e) fleet merge — a 3-worker front door's `metrics` verb equals
//      merge_prometheus of the individual worker scrapes plus the
//      router's rows, and counts each request once;
//  (f) merged_metrics hardening — a shard reporting a non-numeric
//      sample stays LIVE and the line passes through the merge
//      verbatim (the stats view skips it); a shard that never answers
//      a scrape is skipped and counted in scrape_errors but stays LIVE
//      (monitoring never changes serving);
//  (g) the bounded event log — drop-oldest with a visible dropped
//      counter, and JSON escaping in format_event.

#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/obs/event_log.h"
#include "nassc/obs/metrics.h"
#include "nassc/obs/trace.h"
#include "nassc/serve/client.h"
#include "nassc/serve/protocol.h"
#include "nassc/serve/server.h"
#include "nassc/serve/shard_router.h"
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

TEST(ObsHistogram, MergePrometheusIsBucketExact)
{
    // Three "shard" registries and one "single process" registry that
    // observes the union: the merged render of the three must equal
    // the union's render byte for byte.  This is the property that
    // makes the fleet `metrics` verb exact — same fixed bounds, so
    // cumulative buckets sum without re-binning.
    obs::MetricsRegistry shard_a;
    obs::MetricsRegistry shard_b;
    obs::MetricsRegistry shard_c;
    obs::MetricsRegistry all;
    const std::vector<std::uint64_t> va = {1, 3, 900, 7};
    const std::vector<std::uint64_t> vb = {2, 2, 65536};
    const std::vector<std::uint64_t> vc = {5000000, 12, 0};
    auto feed = [](obs::MetricsRegistry &reg,
                   const std::vector<std::uint64_t> &vals,
                   std::uint64_t reqs) {
        obs::Histogram &h = reg.histogram("nassc_t_us", "test hist");
        for (std::uint64_t v : vals)
            h.observe(v);
        reg.counter("nassc_reqs_total", "test counter").inc(reqs);
    };
    feed(shard_a, va, 4);
    feed(shard_b, vb, 3);
    feed(shard_c, vc, 3);
    std::vector<std::uint64_t> merged_vals;
    for (const auto *v : {&va, &vb, &vc})
        merged_vals.insert(merged_vals.end(), v->begin(), v->end());
    feed(all, merged_vals, 10);

    const std::string merged = obs::merge_prometheus(
        {shard_a.render(), shard_b.render(), shard_c.render()});
    EXPECT_EQ(merged, all.render());
}

TEST(ObsHistogram, MergePassesNonNumericLinesOnce)
{
    // y's value does not fit uint64: it must pass through verbatim,
    // not wrap and sum.
    const std::string a = "# TYPE x counter\nx 3\nbuild_info version=1\n"
                          "y 99999999999999999999\n";
    const std::string b = "# TYPE x counter\nx 4\nbuild_info version=1\n"
                          "y 99999999999999999999\n";
    const std::string merged = obs::merge_prometheus({a, b});
    EXPECT_NE(merged.find("x 7\n"), std::string::npos);
    // Comments and unparsable lines are kept first-seen, not summed or
    // duplicated.
    EXPECT_EQ(merged.find("# TYPE x counter"),
              merged.rfind("# TYPE x counter"));
    EXPECT_EQ(merged.find("build_info version=1"),
              merged.rfind("build_info version=1"));
    EXPECT_NE(merged.find("\ny 99999999999999999999\n"), std::string::npos);
    EXPECT_EQ(merged.find("y 9"), merged.rfind("y 9"));
}

TEST(ObsMetrics, StatsViewReadsUnlabeledCounterAndGaugeRows)
{
    obs::MetricsRegistry reg;
    reg.counter("nassc_a_total", "registry counter").inc(4);
    reg.gauge("nassc_b", "registry gauge").set(6);
    reg.gauge("nassc_negative", "registry gauge").set(-1);
    reg.histogram("nassc_h_us", "histogram").observe(3);
    reg.counter("other_total", "no nassc_ prefix").inc();
    std::string body = reg.render();
    obs::render_row(body, "counter", "requests", "row counter", 2);
    obs::render_row(body, "gauge", "cache_bytes", "row gauge", 9);
    EXPECT_NE(body.find("\nnassc_requests_total 2\n"), std::string::npos);
    EXPECT_NE(body.find("\nnassc_cache_bytes 9\n"), std::string::npos);
    body += "# TYPE nassc_huge_total counter\n"
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
    TranspileOptions opts;
    opts.deadline_ms = 1; // expires mid-search on a 15q circuit

    auto tracer = std::make_shared<obs::Tracer>("deadline");
    {
        obs::TraceScope scope(tracer);
        TranspileTicket ticket = service.submit(
            benchmark_by_name("qft_n15"), shared_montreal(), opts);
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
    // layout_trials > 1 sends trials through Scheduler::parallel_for,
    // so the per-trial spans below also pin the Job trace-propagation
    // seam (spans recorded on stolen worker threads land on this
    // request's tracer).
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
         {"decode", "admission", "queue_wait", "distance_resolve",
          "layout", "routing", "cache_insert", "transpile"})
        EXPECT_TRUE(stages.count(stage)) << "missing span " << stage;
    // Per-trial spans: one per completed layout trial, several trials.
    ASSERT_TRUE(stages.count("layout_trial"));
    EXPECT_GT(stages.at("layout_trial"), 1u);

    // Hit path: same request again reports the cache_hit trace
    // (decode + admission — the request never reaches a worker).
    const ServeResponse hit =
        client.transpile_qasm(qasm, "ibmq_montreal", traced_opts);
    EXPECT_EQ(hit.source, "cache_hit");
    EXPECT_FALSE(hit.trace_id.empty());
    EXPECT_NE(hit.trace_id, miss.trace_id);
    const std::map<std::string, std::uint64_t> hit_stages = span_map(hit);
    EXPECT_TRUE(hit_stages.count("decode"));
    EXPECT_TRUE(hit_stages.count("admission"));
    EXPECT_FALSE(hit_stages.count("queue_wait"));
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

// ---------------------------------------------------------- fleet merge

TEST(ObsFleet, FrontMetricsEqualsMergedWorkerScrapes)
{
    // Three in-process workers and a forwarding front, exactly as
    // test_shard_router.cc builds them.
    ShardRouterOptions ropts;
    std::vector<std::unique_ptr<NasscServer>> workers;
    for (int s = 0; s < 3; ++s) {
        ServerOptions wopts;
        wopts.unix_path = socket_path("mw" + std::to_string(s));
        workers.push_back(std::make_unique<NasscServer>(wopts));
        workers.back()->start();
        ServeEndpoint endpoint;
        endpoint.unix_path = workers.back()->unix_path();
        ropts.shards.push_back(endpoint);
    }
    auto router = std::make_shared<ShardRouter>(std::move(ropts));
    ServerOptions fopts;
    fopts.unix_path = socket_path("mfront");
    fopts.shard_router = router;
    NasscServer front(fopts);
    front.start();

    ServeClient client = ServeClient::connect_unix(front.unix_path());
    for (const char *name : {"vqe_n8", "qpe_n9", "adder_n10"})
        client.transpile_qasm(to_qasm(benchmark_by_name(name)),
                              "ibmq_montreal", {{"router", "sabre"}});

    // Scrape each worker directly, then the front.  The registries are
    // THE process-global one here (in-process fleet), so the only drift
    // between scrapes is the decode histogram each scrape itself feeds;
    // the front also appends its router rows after the merge.  Strip
    // those lines and demand byte equality on the rest, which pins the
    // whole socket path: verb handling on the workers, fan-out, and
    // bucket-wise merge on the front.
    auto strip = [](const std::string &body,
                    std::initializer_list<const char *> names) {
        std::string out;
        std::size_t pos = 0;
        while (pos < body.size()) {
            std::size_t end = body.find('\n', pos);
            if (end == std::string::npos)
                end = body.size();
            const std::string line = body.substr(pos, end - pos);
            bool drop = false;
            for (const char *name : names)
                drop = drop || line.find(name) != std::string::npos;
            if (!drop)
                out += line + "\n";
            pos = end + 1;
        }
        return out;
    };
    std::vector<std::string> scrapes;
    for (auto &worker : workers) {
        ServeClient wc = ServeClient::connect_unix(worker->unix_path());
        scrapes.push_back(wc.metrics());
    }
    const std::string front_body = client.metrics();
    EXPECT_EQ(strip(front_body, {"nassc_decode_us", "nassc_shard",
                                 "nassc_forward", "nassc_failovers",
                                 "nassc_scrape_errors"}),
              strip(obs::merge_prometheus(scrapes), {"nassc_decode_us"}));
    // Each worker renders its own service's count, so the fleet sum is
    // the three requests driven, not three copies of a process total.
    EXPECT_NE(front_body.find("\nnassc_requests_total 3\n"),
              std::string::npos);
    EXPECT_NE(front_body.find("\nnassc_shards_live 3\n"), std::string::npos);

    front.stop();
    router->close_pools();
    for (auto &worker : workers)
        worker->stop();
}

// ------------------------------------------- merged_metrics hardening

/** A protocol-speaking fake shard whose metrics include a sample no
 *  integer parser can sum.  Real workers never do this today; the
 *  front must stay correct when one does tomorrow.  A `stalled` fake
 *  reads every request frame and never answers, like a wedged worker. */
struct FakeStatsShard
{
    std::string path = socket_path("fake");
    int listen_fd = -1;
    std::thread th;

    explicit FakeStatsShard(bool stalled = false)
    {
        ::unlink(path.c_str());
        listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listen_fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd, 4) != 0)
            throw std::runtime_error("fake shard: bind/listen failed");
        th = std::thread([this, stalled] {
            for (;;) {
                const int fd = ::accept(listen_fd, nullptr, nullptr);
                if (fd < 0)
                    return; // listener shut down
                try {
                    std::string payload;
                    while (read_frame(fd, payload)) {
                        if (stalled)
                            continue; // until the client hangs up
                        ServeResponse resp;
                        resp.status = "ok";
                        resp.metrics = "# TYPE nassc_requests_total counter\n"
                                       "nassc_requests_total 5\n"
                                       "# TYPE nassc_uptime gauge\n"
                                       "nassc_uptime 3h17m\n"
                                       "# TYPE nassc_transpiles_ok_total "
                                       "counter\n"
                                       "nassc_transpiles_ok_total 2\n";
                        write_frame(fd, encode_response(resp));
                    }
                } catch (const std::exception &) {
                }
                ::close(fd);
            }
        });
    }

    ~FakeStatsShard()
    {
        ::shutdown(listen_fd, SHUT_RDWR);
        ::close(listen_fd);
        th.join();
        ::unlink(path.c_str());
    }
};

TEST(ObsMergedStats, NonNumericRowsPassThroughWithoutKillingTheShard)
{
    FakeStatsShard fake;
    ShardRouterOptions ropts;
    ServeEndpoint endpoint;
    endpoint.unix_path = fake.path;
    ropts.shards.push_back(endpoint);
    ShardRouter router(std::move(ropts));

    const std::string body = router.merged_metrics();
    const std::map<std::string, std::uint64_t> rows =
        obs::stats_from_metrics(body);

    // Numeric samples summed normally; the odd one passes through the
    // merge verbatim and the stats view skips it — and the shard is
    // still LIVE (a presentation problem is not a shard fault).
    EXPECT_NE(body.find("\nnassc_uptime 3h17m\n"), std::string::npos);
    EXPECT_EQ(rows.at("requests"), 5u);
    EXPECT_EQ(rows.at("transpiles_ok"), 2u);
    EXPECT_EQ(rows.count("uptime"), 0u);
    EXPECT_EQ(rows.at("shards_live"), 1u);
    EXPECT_EQ(rows.at("scrape_errors"), 0u);
    EXPECT_TRUE(router.is_live(0));
}

TEST(ObsMergedStats, StalledScrapeSkipsTheShardButLeavesItLive)
{
    FakeStatsShard fake(/*stalled=*/true);
    ShardRouterOptions ropts;
    ServeEndpoint endpoint;
    endpoint.unix_path = fake.path;
    ropts.shards.push_back(endpoint);
    ropts.io_timeout_ms = 100;
    ShardRouter router(std::move(ropts));

    auto scrape_stats = [&router] {
        return obs::stats_from_metrics(router.merged_metrics());
    };

    // The read times out: the shard's rows are missing from this
    // scrape, which counts as a scrape error, not a forwarding fault.
    const auto rows = scrape_stats();
    EXPECT_TRUE(router.is_live(0));
    EXPECT_EQ(rows.count("requests"), 0u);
    EXPECT_EQ(rows.at("shards_live"), 1u);
    EXPECT_EQ(rows.at("scrape_errors"), 1u);
    EXPECT_EQ(rows.at("forward_errors"), 0u);

    router.merged_metrics();
    EXPECT_TRUE(router.is_live(0));
    EXPECT_EQ(router.stats_snapshot().forward_errors, 0u);
    EXPECT_EQ(scrape_stats().at("scrape_errors"), 3u);
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
