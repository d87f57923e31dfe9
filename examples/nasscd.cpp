// nasscd: the NASSC transpilation daemon.
//
// Serves the length-prefixed text protocol of serve/protocol.h over a
// unix-domain socket and/or TCP, routing every request through one
// hardened TranspileService (dedup, coalescing, byte-bounded result
// cache, TTL/generation invalidation, per-request priorities).
//
//   nasscd --unix /tmp/nassc.sock
//   nasscd --port 7747 --threads 8 --cache-bytes 134217728 --ttl 300
//   nasscd --port 0 --max-conns 64 --max-queue 128 --default-deadline 5000
//
// Sharded mode: `--shards N` turns this process into a supervised
// front door.  N child nasscd workers are fork/exec'd, each listening
// on `<unix-path>.shard<i>` and owning a consistent-hash slice of the
// request keyspace; the front forwards frames to the owning shard
// (serve/shard_router.h) and the supervisor (serve/supervisor.h)
// restarts crashed workers with backoff, quarantines flappers, and
// SIGKILLs hung ones.  `metrics` answers with the fleet-merged scrape
// plus the router's and supervisor's rows.
//
//   nasscd --unix /tmp/nassc.sock --shards 3
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests drain to
// their responses, then children are SIGTERMed (they drain the same
// way) and the process exits 0.
//
// Fault injection: set NASSC_FAILPOINTS (e.g.
// "service.transpile=2*throw(boom);protocol.write.disconnect=1*trigger")
// to arm failpoints at startup — see service/failpoint.h.  In sharded
// mode `--shard-failpoints IDX:SPEC` arms SPEC in shard IDX's FIRST
// incarnation only (restarts boot clean), which is how crash-failover
// is exercised end to end:
//
//   nasscd --unix /tmp/s.sock --shards 3
//       --shard-failpoints '1:service.transpile=1*abort()'

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "nassc/obs/event_log.h"
#include "nassc/serve/client.h"
#include "nassc/serve/server.h"
#include "nassc/serve/shard_router.h"
#include "nassc/serve/supervisor.h"
#include "nassc/service/failpoint.h"

namespace {

std::atomic<bool> g_stop{false};

void
on_signal(int)
{
    g_stop.store(true);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--unix PATH] [--port N [--host H]] [options]\n"
        "\n"
        "listeners (at least one):\n"
        "  --unix PATH        unix-domain socket path\n"
        "  --port N           TCP port (0 = ephemeral, printed on start)\n"
        "  --host H           TCP bind address (default 127.0.0.1)\n"
        "\n"
        "service hardening:\n"
        "  --threads N        provision N scheduler workers\n"
        "  --cache-entries N  result-cache entry cap (default 256)\n"
        "  --cache-bytes N    result-cache byte budget (default 64 MiB)\n"
        "  --ttl SECONDS      default result TTL (0 = never expires)\n"
        "  --purge-interval S sweep expired cache entries every S seconds\n"
        "                     (default 30; 0 disables the sweep)\n"
        "\n"
        "observability:\n"
        "  --slow-ms MS       log a slow_request event for transpiles\n"
        "                     slower than MS server-side (0 = off)\n"
        "  --event-log PATH   append structured JSONL events (slow\n"
        "                     requests, sheds, deadline misses, shard\n"
        "                     restarts) to PATH; default stderr\n"
        "\n"
        "overload and deadlines:\n"
        "  --max-conns N      shed connections past N with `status\n"
        "                     overloaded` (0 = unbounded, the default)\n"
        "  --max-queue N      shed requests once N jobs are queued\n"
        "                     (0 = unbounded, the default)\n"
        "  --retry-after MS   backoff hint sent with overloaded responses\n"
        "                     (default 50)\n"
        "  --default-deadline MS\n"
        "                     deadline for requests that do not set\n"
        "                     deadline_ms themselves (0 = none)\n"
        "\n"
        "sharded serving (requires --unix; see serve/shard_router.h):\n"
        "  --shards N         run as a front door over N supervised\n"
        "                     worker processes on <unix>.shard<i>\n"
        "  --shard-timeout MS per-I/O timeout talking to a shard before\n"
        "                     failover (default 30000)\n"
        "  --shard-failpoints IDX:SPEC\n"
        "                     arm SPEC (a NASSC_FAILPOINTS list) in\n"
        "                     shard IDX's first incarnation only\n",
        argv0);
}

/** The front door's own path to re-exec as a worker. */
std::string
self_executable(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

} // namespace

int
main(int argc, char **argv)
{
    nassc::ServerOptions options;
    double purge_interval = 30.0;
    int slow_ms = 0;
    std::string event_log_path;
    int shards = 0;
    int shard_timeout_ms = 30000;
    std::vector<std::pair<int, std::string>> shard_failpoints;
    // Service flags repeated verbatim to worker argv (sharded mode):
    // workers get the SAME hardening knobs the flat daemon would.
    std::vector<std::string> worker_flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "nasscd: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto worker_flag = [&](const char *v) {
            worker_flags.push_back(arg);
            worker_flags.push_back(v);
            return v;
        };
        if (arg == "--unix") {
            options.unix_path = value();
        } else if (arg == "--port") {
            options.tcp_port = std::atoi(value());
        } else if (arg == "--host") {
            options.host = value();
        } else if (arg == "--threads") {
            options.service.num_threads = std::atoi(worker_flag(value()));
        } else if (arg == "--cache-entries") {
            options.service.cache_capacity =
                static_cast<std::size_t>(std::atoll(worker_flag(value())));
        } else if (arg == "--cache-bytes") {
            options.service.cache_max_bytes =
                static_cast<std::size_t>(std::atoll(worker_flag(value())));
        } else if (arg == "--ttl") {
            options.service.default_ttl_seconds =
                std::atof(worker_flag(value()));
        } else if (arg == "--purge-interval") {
            purge_interval = std::atof(worker_flag(value()));
        } else if (arg == "--slow-ms") {
            slow_ms = std::atoi(worker_flag(value()));
        } else if (arg == "--event-log") {
            event_log_path = value();
        } else if (arg == "--max-conns") {
            options.max_connections =
                static_cast<std::size_t>(std::atoll(value()));
        } else if (arg == "--max-queue") {
            options.service.max_queued =
                static_cast<std::size_t>(std::atoll(worker_flag(value())));
        } else if (arg == "--retry-after") {
            options.retry_after_ms = std::atoi(worker_flag(value()));
        } else if (arg == "--default-deadline") {
            options.default_deadline_ms = std::atoi(worker_flag(value()));
        } else if (arg == "--shards") {
            shards = std::atoi(value());
        } else if (arg == "--shard-timeout") {
            shard_timeout_ms = std::atoi(value());
        } else if (arg == "--shard-failpoints") {
            const std::string spec = value();
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos || colon == 0) {
                std::fprintf(stderr,
                             "nasscd: --shard-failpoints wants IDX:SPEC, "
                             "got '%s'\n",
                             spec.c_str());
                return 2;
            }
            shard_failpoints.emplace_back(
                std::atoi(spec.substr(0, colon).c_str()),
                spec.substr(colon + 1));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "nasscd: unknown flag %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (options.unix_path.empty() && options.tcp_port < 0) {
        usage(argv[0]);
        return 2;
    }
    if (shards > 0 && options.unix_path.empty()) {
        std::fprintf(stderr,
                     "nasscd: --shards needs --unix (worker sockets are "
                     "<unix>.shard<i>)\n");
        return 2;
    }

    const int armed = nassc::failpoint::arm_from_env();
    if (armed > 0)
        std::printf("nasscd armed %d failpoint(s) from NASSC_FAILPOINTS\n",
                    armed);

    if (slow_ms > 0)
        nassc::obs::EventLog::global().set_slow_threshold_us(
            static_cast<std::uint64_t>(slow_ms) * 1000);
    std::FILE *event_sink = stderr;
    if (!event_log_path.empty()) {
        event_sink = std::fopen(event_log_path.c_str(), "a");
        if (!event_sink) {
            std::fprintf(stderr,
                         "nasscd: cannot open --event-log %s; using stderr\n",
                         event_log_path.c_str());
            event_sink = stderr;
        }
    }
    // Flush the bounded ring (slow requests, sheds, deadline misses,
    // supervisor restarts) as JSONL; called every main-loop tick and
    // once more at shutdown so nothing buffered is lost.
    auto flush_events = [&]() {
        const std::vector<std::string> lines =
            nassc::obs::EventLog::global().drain();
        if (lines.empty())
            return;
        for (const std::string &line : lines) {
            std::fputs(line.c_str(), event_sink);
            std::fputc('\n', event_sink);
        }
        std::fflush(event_sink);
    };

    try {
        // --- Sharded front door: supervisor + router around the same
        // NasscServer shell. ---
        std::shared_ptr<nassc::ShardRouter> router;
        std::unique_ptr<nassc::Supervisor> supervisor;
        nassc::Supervisor *supervisor_raw = nullptr;
        std::vector<std::string> shard_paths;
        if (shards > 0) {
            const std::string exe = self_executable(argv[0]);
            for (int s = 0; s < shards; ++s)
                shard_paths.push_back(options.unix_path + ".shard" +
                                      std::to_string(s));

            nassc::ShardRouterOptions ropts;
            for (const std::string &path : shard_paths) {
                nassc::ServeEndpoint endpoint;
                endpoint.unix_path = path;
                ropts.shards.push_back(endpoint);
            }
            ropts.io_timeout_ms = shard_timeout_ms;
            ropts.extra_counters =
                [&supervisor_raw]()
                -> std::vector<std::pair<std::string, std::uint64_t>> {
                if (!supervisor_raw)
                    return {};
                const nassc::SupervisorStats s = supervisor_raw->stats();
                return {
                    {"supervisor_spawns", s.spawns},
                    {"supervisor_restarts", s.restarts},
                    {"supervisor_quarantines", s.quarantines},
                    {"supervisor_hang_kills", s.hang_kills},
                };
            };
            router = std::make_shared<nassc::ShardRouter>(std::move(ropts));

            nassc::SupervisorOptions sopts;
            sopts.shards = shards;
            sopts.command = [exe, &shard_paths,
                             worker_flags](int s) -> std::vector<std::string> {
                std::vector<std::string> cmd = {
                    exe, "--unix", shard_paths[static_cast<std::size_t>(s)]};
                cmd.insert(cmd.end(), worker_flags.begin(),
                           worker_flags.end());
                return cmd;
            };
            if (!shard_failpoints.empty())
                sopts.first_spawn_env =
                    [shard_failpoints](int s) -> std::vector<std::string> {
                    std::vector<std::string> env;
                    for (const auto &fp : shard_failpoints)
                        if (fp.first == s)
                            env.push_back("NASSC_FAILPOINTS=" + fp.second);
                    return env;
                };
            sopts.health_interval_ms = 500;
            sopts.health_check = [&shard_paths](int s) {
                try {
                    nassc::ServeClient probe =
                        nassc::ServeClient::connect_unix(
                            shard_paths[static_cast<std::size_t>(s)]);
                    probe.set_io_timeout(1000);
                    return probe.ping();
                } catch (const std::exception &) {
                    return false;
                }
            };
            sopts.on_state = [&router](int s, bool up) {
                if (up)
                    router->mark_live(s);
                else
                    router->mark_dead(s);
            };
            supervisor = std::make_unique<nassc::Supervisor>(
                std::move(sopts));
            supervisor->start();
            supervisor_raw = supervisor.get();
            if (!supervisor->wait_all_alive(15000))
                std::fprintf(stderr,
                             "nasscd: warning: not every shard came up in "
                             "15s; supervision continues\n");
            options.shard_router = router;
        }

        nassc::NasscServer server(std::move(options));
        server.start();
        if (!server.unix_path().empty())
            std::printf("nasscd listening on unix:%s\n",
                        server.unix_path().c_str());
        if (server.tcp_port() >= 0)
            std::printf("nasscd listening on tcp:%d\n", server.tcp_port());
        if (shards > 0)
            std::printf("nasscd fronting %d shard(s)\n", shards);
        std::fflush(stdout); // wrappers wait for this line before connecting

        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);
        // The main loop doubles as the cache janitor: TTL expiry is
        // otherwise lazy (entries die when next touched), so a quiet
        // daemon would pin expired results in memory indefinitely.
        // (Workers run their own sweep; the front's service is idle.)
        const auto purge_every =
            std::chrono::duration<double>(purge_interval);
        auto last_purge = std::chrono::steady_clock::now();
        while (!g_stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            flush_events();
            if (purge_interval <= 0 || shards > 0)
                continue;
            const auto now = std::chrono::steady_clock::now();
            if (now - last_purge >= purge_every) {
                server.service().purge_expired();
                last_purge = now;
            }
        }

        std::printf("nasscd draining...\n");
        std::fflush(stdout);
        // Order matters: stop accepting + drain in-flight forwards
        // FIRST, close the shard pools, THEN stop the workers (which
        // drain their own in-flight work on SIGTERM).
        server.stop();
        if (router)
            router->close_pools();
        if (supervisor)
            supervisor->stop();
        flush_events();
        if (event_sink != stderr)
            std::fclose(event_sink);
        if (shards > 0) {
            const nassc::ShardRouterStats rs = router->stats_snapshot();
            const nassc::SupervisorStats ss = supervisor->stats();
            std::printf("nasscd forwarded %llu frames "
                        "(%llu failovers, %llu shard restarts)\n",
                        static_cast<unsigned long long>(rs.forwards),
                        static_cast<unsigned long long>(rs.failovers),
                        static_cast<unsigned long long>(ss.restarts));
        } else {
            const nassc::ServiceStats stats = server.service().stats();
            std::printf(
                "nasscd served %llu requests "
                "(%llu hits, %llu coalesced, %llu transpiles)\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.transpiles_ok +
                                                stats.transpiles_failed));
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nasscd: fatal: %s\n", e.what());
        return 1;
    }
}
