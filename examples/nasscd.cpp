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
// SIGINT/SIGTERM shut down gracefully: in-flight requests drain to
// their responses and the process exits 0.  nasscd does not restart
// itself after a crash; run it under an external process supervisor
// (e.g. systemd Restart=on-failure) and let RetryingServeClient
// reconnect across the restart.
//
// Numeric flags are parsed strictly: the whole token must be a number
// in range (sizes and counts non-negative), otherwise nasscd prints
// "bad value for --FLAG" and exits 2 before opening any socket.
//
// Fault injection: set NASSC_FAILPOINTS (e.g.
// "service.transpile=2*throw(boom);protocol.write.disconnect=1*trigger")
// to arm failpoints at startup — see service/failpoint.h.

#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "nassc/obs/event_log.h"
#include "nassc/serve/server.h"
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
        "  --threads N        run requests on a private pool of exactly\n"
        "                     N workers (0, the default: the shared pool)\n"
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
        "                     requests, sheds, deadline misses) to PATH;\n"
        "                     default stderr\n"
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
        "                     deadline_ms themselves (0 = none)\n",
        argv0);
}

[[noreturn]] void
bad_value(const std::string &flag)
{
    std::fprintf(stderr, "nasscd: bad value for %s\n", flag.c_str());
    std::exit(2);
}

/** The whole token as an integer in [lo, hi]: no whitespace, no '+',
 *  no trailing junk, and no sign at all for unsigned T, so "-1" cannot
 *  wrap to SIZE_MAX. */
template <typename T>
T
parse_integer(const std::string &flag, const char *text, T lo, T hi)
{
    T v{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi)
        bad_value(flag);
    return v;
}

/** The whole token as a finite, non-negative number of seconds. */
double
parse_seconds(const std::string &flag, const char *text)
{
    double v = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0)
        bad_value(flag);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    nassc::ServerOptions options;
    double purge_interval = 30.0;
    int slow_ms = 0;
    std::string event_log_path;
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
        // Counts and sizes: non-negative, within the field's own type.
        auto count = [&] { return parse_integer(arg, value(), 0, INT_MAX); };
        auto size = [&] {
            return parse_integer<std::size_t>(arg, value(), 0, SIZE_MAX);
        };
        if (arg == "--unix") {
            options.unix_path = value();
        } else if (arg == "--port") {
            options.tcp_port = parse_integer(arg, value(), 0, 65535);
        } else if (arg == "--host") {
            options.host = value();
        } else if (arg == "--threads") {
            const int n = count();
            if (n > 0)
                options.service.scheduler =
                    std::make_shared<nassc::Scheduler>(n);
        } else if (arg == "--cache-entries") {
            options.service.cache_capacity = size();
        } else if (arg == "--cache-bytes") {
            options.service.cache_max_bytes = size();
        } else if (arg == "--ttl") {
            options.service.default_ttl_seconds = parse_seconds(arg, value());
        } else if (arg == "--purge-interval") {
            purge_interval = parse_seconds(arg, value());
        } else if (arg == "--slow-ms") {
            slow_ms = count();
        } else if (arg == "--event-log") {
            event_log_path = value();
        } else if (arg == "--max-conns") {
            options.max_connections = size();
        } else if (arg == "--max-queue") {
            options.service.max_queued = size();
        } else if (arg == "--retry-after") {
            options.retry_after_ms = count();
        } else if (arg == "--default-deadline") {
            options.default_deadline_ms = count();
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
    // Flush the bounded ring (slow requests, sheds, deadline misses) as
    // JSONL; called every main-loop tick and once more at shutdown so
    // nothing buffered is lost.
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
        nassc::NasscServer server(std::move(options));
        server.start();
        if (!server.unix_path().empty())
            std::printf("nasscd listening on unix:%s\n",
                        server.unix_path().c_str());
        if (server.tcp_port() >= 0)
            std::printf("nasscd listening on tcp:%d\n", server.tcp_port());
        std::fflush(stdout); // wrappers wait for this line before connecting

        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);
        // The main loop doubles as the cache janitor: TTL expiry is
        // otherwise lazy (entries die when next touched), so a quiet
        // daemon would pin expired results in memory indefinitely.
        const auto purge_every =
            std::chrono::duration<double>(purge_interval);
        auto last_purge = std::chrono::steady_clock::now();
        while (!g_stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            flush_events();
            if (purge_interval <= 0)
                continue;
            const auto now = std::chrono::steady_clock::now();
            if (now - last_purge >= purge_every) {
                server.service().purge_expired();
                last_purge = now;
            }
        }

        std::printf("nasscd draining...\n");
        std::fflush(stdout);
        server.stop();
        flush_events();
        if (event_sink != stderr)
            std::fclose(event_sink);
        const nassc::ServiceStats stats = server.service().stats();
        std::printf("nasscd served %llu requests "
                    "(%llu hits, %llu coalesced, %llu transpiles)\n",
                    static_cast<unsigned long long>(stats.requests),
                    static_cast<unsigned long long>(stats.cache_hits),
                    static_cast<unsigned long long>(stats.coalesced),
                    static_cast<unsigned long long>(stats.transpiles_ok +
                                                    stats.transpiles_failed));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nasscd: fatal: %s\n", e.what());
        return 1;
    }
}
