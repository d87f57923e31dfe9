// The serving side of the benchmark: the wire_mix workload (a closed-loop
// mix of cache hits, fresh misses and pings against a nasscd process on
// a unix socket) and the traced wire pass of the compile workloads (the
// same list through an in-process NasscServer with `option trace=1`).

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "nassc/ir/qasm.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/serve/client.h"
#include "nassc/serve/server.h"

namespace pb {

using namespace nassc;

namespace {

constexpr double kHitShare = 0.55;
constexpr double kMissShare = 0.40; ///< the rest are pings
/** Closed-loop segments, for the printed tail percentiles.  A 10 s
 *  segment holds ~3000 misses, so even its p99 has ten samples beyond
 *  it. */
constexpr std::size_t kSegments = 3;
/** How often the loop pauses for an in-process pass over the hot set
 *  (~0.12 s). */
constexpr std::chrono::seconds kCompileEvery{1};

/** A nasscd child process on a unix socket; stopped and reaped on
 *  destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &log)
        : socket_(socket), log_(log)
    {
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                  0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execl(binary.c_str(), binary.c_str(), "--unix", socket.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        const auto give_up = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < give_up) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("nasscd exited during start-up; "
                                         "see " + log_);
            }
            try {
                ServeClient c = ServeClient::connect_unix(socket_);
                if (c.ping())
                    return;
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        stop();
        throw std::runtime_error("nasscd did not answer within 30 s");
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** VmHWM of the daemon, in MiB. */
    double
    peak_rss_mb() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (f >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                f >> kb;
                return kb / 1024.0;
            }
            std::getline(f, key);
        }
        return 0.0;
    }

    /** SIGTERM, then SIGKILL after 20 s; always reaps. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const auto kill_at = Clock::now() + std::chrono::seconds(20);
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > kill_at) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        ::unlink(socket_.c_str());
    }

  private:
    std::string socket_, log_;
    pid_t pid_ = -1;
};

using Options = std::vector<std::pair<std::string, std::string>>;

Options
wire_options(const TranspileOptions &o, bool trace)
{
    Options opts = {
        {"router", o.router == RoutingAlgorithm::kSabre ? "sabre" : "nassc"},
        {"seed", std::to_string(o.seed)}};
    if (trace)
        opts.emplace_back("trace", "1");
    return opts;
}

ServeRequest
transpile_request(const std::string &backend, const std::string &qasm,
                  const TranspileOptions &o, bool trace)
{
    ServeRequest req;
    req.verb = "transpile";
    req.backend = backend;
    req.options = wire_options(o, trace);
    req.qasm = qasm;
    return req;
}

/** Sum of the request's top-level spans (nested ones — layout, routing,
 *  route passes, distance — sit inside `transpile`). */
double
top_level_span_us(const ServeResponse &resp, ServeSplit &split, bool miss)
{
    double sum = 0.0;
    for (const auto &[name, us] : resp.spans) {
        const double v = static_cast<double>(us);
        if (name == "decode")
            split.decode_us.push_back(v);
        else if (name == "queue_wait" && miss)
            split.queue_wait_us.push_back(v);
        else if (name == "transpile" && miss)
            split.transpile_us.push_back(v);
        if (name == "decode" || name == "admission" || name == "queue_wait" ||
            name == "transpile" || name == "cache_insert")
            sum += v;
    }
    return sum;
}

long long
stat_of(const std::map<std::string, std::uint64_t> &stats, const char *key)
{
    auto it = stats.find(key);
    return it == stats.end() ? 0 : static_cast<long long>(it->second);
}

std::string
socket_path(const Args &args, const char *tag, int n)
{
    return args.run_dir + "/" + tag + "-" + std::to_string(::getpid()) +
           "-" + std::to_string(n) + ".sock";
}

// ----------------------------------------------------------- closed loop

enum class Kind { kHit, kMiss, kPing };

struct Request
{
    Kind kind = Kind::kPing;
    int circuit = 0; ///< hot-set item (hit) or small circuit (miss)
    TranspileOptions options; ///< miss: fresh seed => fresh key
};

struct Sent
{
    double latency_us = 0.0; ///< from send to response
    bool ok = false;
    std::string error;
    std::string qasm; ///< misses: checked after the run
    ServeResponse traced;
};

/** The workload seed's request stream: hits on the hot set, misses that
 *  each carry a seed option never sent before, and pings. */
class RequestMix
{
  public:
    RequestMix(std::uint64_t seed, std::size_t hot_items,
               std::size_t small_circuits)
        : rng_(mix_seed(seed, 7)),
          seed_base_(static_cast<unsigned>(mix_seed(seed, 8) & 0x3fffffffu)),
          hot_items_(hot_items), small_circuits_(small_circuits)
    {
    }

    Request
    next()
    {
        Request r;
        const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
        if (u < kHitShare) {
            r.kind = Kind::kHit;
            r.circuit = static_cast<int>(rng_() % hot_items_);
        } else if (u < kHitShare + kMissShare) {
            r.kind = Kind::kMiss;
            r.circuit = static_cast<int>(rng_() % small_circuits_);
            r.options.router = (rng_() & 1) ? RoutingAlgorithm::kNassc
                                            : RoutingAlgorithm::kSabre;
            r.options.seed = seed_base_ + misses_++;
        }
        return r;
    }

  private:
    std::mt19937_64 rng_;
    unsigned seed_base_;
    unsigned misses_ = 0;
    std::size_t hot_items_, small_circuits_;
};

/** Start the daemon and warm the hot set into its result cache. */
std::unique_ptr<Daemon>
start_warm_daemon(const Args &args, int n, const CompileList &hot,
                  const std::vector<std::string> &hot_qasm)
{
    auto daemon = std::make_unique<Daemon>(
        args.nasscd, socket_path(args, "nasscd", n),
        args.run_dir + "/nasscd-" + std::to_string(::getpid()) + ".log");
    ServeClient client =
        ServeClient::connect_unix(socket_path(args, "nasscd", n));
    for (std::size_t i = 0; i < hot.items.size(); ++i)
        client.transpile_qasm(hot_qasm[i], hot.backend->name,
                              wire_options(hot.items[i].options, false));
    return daemon;
}

/** In-process serial compile of `list`; the wall time is compile_s. */
std::vector<TranspileResult>
compile_in_process(const CompileList &list, double &seconds)
{
    TranspileContext ctx(
        TranspileContext::Config{std::make_shared<DistanceCache>(), nullptr,
                                 {}});
    std::vector<TranspileResult> out;
    const auto t0 = Clock::now();
    for (const CompileItem &item : list.items)
        out.push_back(ctx.transpile(item.circuit, *list.backend,
                                    item.options));
    seconds = seconds_since(t0);
    return out;
}

/** Send one request, wait for its answer and record the outcome; hits
 *  are checked byte-equal to `ref_qasm` on the spot.  Returns false when
 *  the connection failed. */
bool
send_one(ServeClient &client, const Request &a, Sent &o,
         const CompileList &hot, const std::vector<std::string> &hot_qasm,
         const std::vector<std::string> &small_qasm,
         const std::vector<std::string> &ref_qasm, bool trace)
{
    ServeRequest req;
    if (a.kind == Kind::kPing)
        req.verb = "ping";
    else if (a.kind == Kind::kHit)
        req = transpile_request(hot.backend->name, hot_qasm[a.circuit],
                                hot.items[a.circuit].options, trace);
    else
        req = transpile_request(hot.backend->name, small_qasm[a.circuit],
                                a.options, trace);
    try {
        const auto sent = Clock::now();
        ServeResponse resp = client.request(req);
        o.latency_us = us_between(sent, Clock::now());
        if (resp.status != "ok")
            o.error = "status " + resp.status + ": " + resp.error;
        else if (a.kind == Kind::kHit && resp.qasm != ref_qasm[a.circuit])
            o.error = "hit response differs from in-process to_qasm";
        o.ok = o.error.empty();
        if (a.kind == Kind::kMiss)
            o.qasm = std::move(resp.qasm);
        if (trace) {
            resp.qasm.clear();
            o.traced = std::move(resp);
        }
        return true;
    } catch (const std::exception &e) {
        o.error = e.what();
        return false;
    }
}

} // namespace

// ----------------------------------------------------------------- wire_mix

void
run_wire_mix(const Args &args, Report &report, Outcome &out,
             ExactCounts &exact)
{
    // Miss circuits: each transpiles in about 0.2 ms, so even on a
    // slowed host a miss lands in the daemon's first 1 ms completion
    // poll and the miss tail does not flip between one and two polls.
    const std::vector<BenchmarkCase> smalls = {
        {"ghz_3", ghz(3)},
        {"ghz_4", ghz(4)},
        {"bv_n3", bernstein_vazirani(3, 0b11)},
    };
    std::vector<std::string> small_qasm;
    for (const BenchmarkCase &bc : smalls)
        small_qasm.push_back(to_qasm(bc.circuit));

    // Set-up, repeated: build the hot set, start nasscd, warm its cache.
    std::vector<double> setup_s;
    CompileList hot;
    std::vector<std::string> hot_qasm;
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        daemon.reset();
        const auto t0 = Clock::now();
        hot = build_compile_list("wire_mix", args.seed);
        hot_qasm.clear();
        for (const CompileItem &item : hot.items)
            hot_qasm.push_back(to_qasm(item.circuit));
        daemon = start_warm_daemon(args, rep, hot, hot_qasm);
        setup_s.push_back(seconds_since(t0));
    }
    const std::string sock = socket_path(args, "nasscd", kSetupReps - 1);

    // The hot set's reference outputs come from in-process compiles,
    // which also give compile_s: one pass before the loop, then one
    // every kCompileEvery inside it, so compile_s samples the host across
    // the whole run.  It is their mean, because the host's speed flips
    // between two levels every few seconds and a mean follows the share
    // of slow time where a median jumps.
    std::vector<double> compile_s(1);
    std::vector<TranspileResult> ref = compile_in_process(hot, compile_s[0]);
    std::vector<std::string> ref_qasm;
    for (const TranspileResult &r : ref)
        ref_qasm.push_back(to_qasm(r.circuit));

    // One connection, each request sent as soon as the previous answer
    // is in.  An open loop of idle gaps timed every request's wake-ups,
    // whose cost swung with the host's other tenants.
    RequestMix mix(args.seed, hot.items.size(), smalls.size());
    std::vector<Request> requests;
    std::vector<Sent> res;
    std::vector<std::size_t> segment_of;
    std::map<std::string, std::uint64_t> before, after;
    {
        ServeClient client = ServeClient::connect_unix(sock);
        before = client.stats();
        const auto start = Clock::now();
        auto next_compile = start + kCompileEvery;
        bool connected = true;
        for (double t = 0.0; connected && t < args.seconds;
             t = seconds_since(start)) {
            if (Clock::now() >= next_compile) {
                compile_s.emplace_back();
                ref = compile_in_process(hot, compile_s.back());
                next_compile += kCompileEvery;
                continue;
            }
            requests.push_back(mix.next());
            res.emplace_back();
            segment_of.push_back(std::min(
                kSegments - 1,
                static_cast<std::size_t>(t * kSegments / args.seconds)));
            connected = send_one(client, requests.back(), res.back(), hot,
                                 hot_qasm, small_qasm, ref_qasm, args.trace);
        }
        if (connected)
            after = client.stats();
    }
    const double daemon_rss_mb = daemon->peak_rss_mb();
    daemon.reset();

    // Checks: every response ok; misses byte-equal to an in-process
    // transpile of the same request.
    Segments hit_us(kSegments), miss_us(kSegments);
    std::size_t hits = 0, misses = 0, pings = 0;
    ServeSplit split;
    TranspileContext check_ctx(
        TranspileContext::Config{std::make_shared<DistanceCache>(), nullptr,
                                 {}});
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &a = requests[i];
        Sent &o = res[i];
        ++out.attempted;
        if (o.ok && a.kind == Kind::kMiss) {
            const TranspileResult r = check_ctx.transpile(
                smalls[a.circuit].circuit, *hot.backend, a.options);
            if (to_qasm(r.circuit) != o.qasm)
                o.error = "miss response differs from in-process to_qasm";
            o.ok = o.error.empty();
        }
        if (!o.ok) {
            out.fail("request " + std::to_string(i) + ": " + o.error);
            continue;
        }
        const std::size_t seg = segment_of[i];
        if (a.kind == Kind::kHit) {
            hit_us[seg].push_back(o.latency_us);
            ++hits;
        } else if (a.kind == Kind::kMiss) {
            miss_us[seg].push_back(o.latency_us);
            ++misses;
        } else {
            ++pings;
        }
        if (a.kind == Kind::kPing) {
            split.ping_us.push_back(o.latency_us);
        } else if (args.trace) {
            const double spans = top_level_span_us(o.traced, split,
                                                   a.kind == Kind::kMiss);
            if (a.kind == Kind::kHit)
                split.unattributed_us.push_back(o.latency_us - spans);
        }
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
        check_output(hot.items[i].name, hot.items[i].circuit, ref[i],
                     hot.backend->coupling, out);
    out.attempted += static_cast<long>(ref.size());

    const long long served =
        stat_of(after, "requests") - stat_of(before, "requests");
    split.hit_ratio =
        served > 0 ? static_cast<double>(stat_of(after, "cache_hits") -
                                         stat_of(before, "cache_hits")) /
                         static_cast<double>(served)
                   : 0.0;
    split.transpiles = stat_of(after, "transpiles_ok") -
                       stat_of(before, "transpiles_ok");
    split.coalesced =
        stat_of(after, "coalesced") - stat_of(before, "coalesced");
    // The loop's length follows the host's speed, so the transpile count
    // is checked against the misses sent: every miss carries a fresh
    // key, so each must transpile exactly once.
    const auto misses_sent = static_cast<long long>(
        std::count_if(requests.begin(), requests.end(),
                      [](const Request &r) { return r.kind == Kind::kMiss; }));
    if (split.transpiles != misses_sent)
        out.fail("service.transpiles is " + std::to_string(split.transpiles) +
                 " for " + std::to_string(misses_sent) + " fresh-key misses");

    const ListTotals totals = list_totals(hot, ref);
    exact.record("cx_total", totals.cx_total, out);
    exact.record("depth_total", totals.depth_total, out);
    std::printf("wire_mix: closed loop over one connection, %zu requests "
                "(%zu hits, %zu misses, %zu pings)\n",
                requests.size(), hits, misses, pings);

    if (!args.trace) {
        emit_end_to_end(setup_s, mean(compile_s), totals,
                        daemon_rss_mb, hit_us, miss_us, report);
        return;
    }

    // Traced: the layer split of the hot set's compile, plus the wire's.
    LayerTotals layers;
    const std::vector<std::uint64_t> replayed = replay_list(hot, layers);
    exact.record("route.swaps", layers.swaps, out);
    exact.record("passes.consolidate_blocks", layers.consolidate_blocks, out);
    exact.record("distance.rows_computed",
                 static_cast<long long>(layers.distance.rows_computed), out);
    emit_layers(layers, report);
    emit_qasm_costs(ref, report, out);
    emit_serve_split(split, report);
    emit_trace_meta(layers, mean(compile_s), replayed, ref, report);
}

// ------------------------------------------------- traced compile wire pass

ServeSplit
wire_pass_in_process(const Args &args, const CompileList &list,
                     const std::vector<TranspileResult> &ref, Outcome &out)
{
    ServerOptions sopts;
    sopts.unix_path = socket_path(args, "inproc", 0);
    NasscServer server(sopts);
    server.register_backend(list.backend);
    server.start();
    // QASM 2.0 has no multi-controlled X, so the wire carries the list
    // lowered to <= 2q gates — transpile()'s own first step, which
    // leaves an already-lowered circuit unchanged.
    std::vector<std::string> request_qasm;
    for (const CompileItem &item : list.items)
        request_qasm.push_back(to_qasm(decompose_to_2q(item.circuit)));
    ServeSplit split;
    {
        ServeClient client = ServeClient::connect_unix(sopts.unix_path);
        // Each item twice: a miss that transpiles, then a cache hit.
        for (int round = 0; round < 2; ++round)
            for (std::size_t i = 0; i < list.items.size(); ++i) {
                ++out.attempted;
                const std::string expect = to_qasm(ref[i].circuit);
                const auto t0 = Clock::now();
                ServeResponse resp = client.request(transpile_request(
                    list.backend->name, request_qasm[i],
                    list.items[i].options, true));
                const double service_us = us_between(t0, Clock::now());
                if (resp.status != "ok" || resp.qasm != expect) {
                    out.fail(list.items[i].name +
                             ": wire response differs from in-process");
                    continue;
                }
                const double spans = top_level_span_us(resp, split,
                                                       round == 0);
                if (round == 1)
                    split.unattributed_us.push_back(service_us - spans);
            }
        for (int i = 0; i < 200; ++i) {
            const auto t0 = Clock::now();
            if (!client.ping())
                out.fail("ping failed");
            split.ping_us.push_back(us_between(t0, Clock::now()));
        }
    }
    const ServiceStats s = server.service().stats();
    server.stop();
    split.hit_ratio = s.requests ? static_cast<double>(s.cache_hits) /
                                       static_cast<double>(s.requests)
                                 : 0.0;
    split.transpiles = static_cast<long long>(s.transpiles_ok);
    split.coalesced = static_cast<long long>(s.coalesced);
    return split;
}

} // namespace pb
