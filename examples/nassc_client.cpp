// nassc_client: command-line client for the nasscd daemon.
//
// Default mode transpiles one OpenQASM 2.0 file (or stdin) and prints
// the routed QASM:
//
//   nassc_client --unix /tmp/nassc.sock circuit.qasm
//   nassc_client --port 7747 --backend grid_5x5 --option router=sabre -
//
// Other modes:
//
//   --builtin NAME   transpile a library benchmark circuit by name
//   --stats          print the counter/gauge rows of the metrics scrape
//                    as `<row> <value>` lines (ServiceStats and
//                    distance-cache rows)
//   --metrics        scrape the daemon's Prometheus text exposition
//   --smoke N        CI smoke: N client threads push a duplicated
//                    workload through the daemon and verify that every
//                    response is BIT-IDENTICAL to an in-process
//                    transpile() of the same circuit, and that the
//                    daemon transpiled each distinct request exactly
//                    once (dedup invariant).  Assumes a fresh daemon;
//                    exits nonzero on any violation.
//   --tolerate-faults
//                    with --smoke: the daemon has fault injection armed
//                    (NASSC_FAILPOINTS), so also retry `status error`
//                    responses and relax the exact dedup accounting —
//                    bit-identity of every successful response stays
//                    strictly enforced.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/serve/client.h"
#include "nassc/transpile/context.h"

namespace {

struct Args
{
    std::string unix_path;
    std::string host = "127.0.0.1";
    int port = -1;
    std::string backend = "ibmq_montreal";
    std::vector<std::pair<std::string, std::string>> options;
    std::string builtin;
    std::string qasm_file;
    bool stats = false;
    bool metrics = false;
    int smoke_threads = 0;
    bool tolerate_faults = false;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: nassc_client (--unix PATH | --port N [--host H]) "
        "[--backend NAME] [--option k=v]... "
        "[--builtin NAME | --stats | --metrics | --smoke N "
        "[--tolerate-faults] | FILE|-]\n"
        "  --stats    print the counter/gauge rows of the metrics "
        "scrape\n"
        "  --metrics  scrape the daemon's Prometheus exposition\n"
        "  --option trace=1  print per-stage span lines (stderr)\n");
}

/** The whole token as an integer in [lo, hi]; usage and exit 2
 *  otherwise. */
int
parse_integer(const std::string &flag, const char *text, int lo, int hi)
{
    int v = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi) {
        std::fprintf(stderr, "nassc_client: bad value for %s\n",
                     flag.c_str());
        usage();
        std::exit(2);
    }
    return v;
}

nassc::ServeEndpoint
endpoint(const Args &args)
{
    if (args.unix_path.empty() && args.port < 0)
        throw std::runtime_error("no --unix or --port given");
    nassc::ServeEndpoint ep;
    ep.unix_path = args.unix_path;
    ep.host = args.host;
    ep.tcp_port = args.port;
    return ep;
}

nassc::RetryPolicy
smoke_policy(const Args &args, unsigned seed)
{
    nassc::RetryPolicy policy;
    policy.max_attempts = 8;
    policy.base_backoff_ms = 5;
    policy.max_backoff_ms = 500;
    policy.jitter_seed = seed;
    policy.retry_application_errors = args.tolerate_faults;
    return policy;
}

std::string
read_input(const std::string &path)
{
    std::ostringstream body;
    if (path == "-" || path.empty()) {
        body << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot open " + path);
        body << in.rdbuf();
    }
    return body.str();
}

/** One smoke work item: a circuit + wire options, duplicated per key. */
struct SmokeJob
{
    std::string name;
    std::string qasm;
    std::vector<std::pair<std::string, std::string>> options;
    std::string key; ///< distinct-request identity (name + options)
};

int
run_smoke(const Args &args)
{
    using nassc::QuantumCircuit;

    // Small mixed workload; every (circuit, router) pair appears
    // TWICE so dedup (cache hit or coalesce) must trigger.
    std::vector<std::pair<std::string, QuantumCircuit>> menu;
    menu.emplace_back("ghz12", nassc::ghz(12));
    menu.emplace_back("qft6", nassc::qft(6));
    menu.emplace_back("bv8", nassc::bernstein_vazirani(8, 0x95));
    menu.emplace_back("vqe6", nassc::vqe_linear(6));

    std::vector<SmokeJob> jobs;
    for (const auto &entry : menu) {
        for (const char *router : {"nassc", "sabre"}) {
            SmokeJob job;
            job.name = entry.first;
            job.qasm = nassc::to_qasm(entry.second);
            job.options = {{"router", router}, {"seed", "3"}};
            job.key = job.name + "/" + router;
            jobs.push_back(job);
            jobs.push_back(job); // the duplicate
        }
    }
    const std::size_t distinct = jobs.size() / 2;

    // Expected answers, computed in-process through the same public
    // pipeline the daemon uses.
    std::map<std::string, std::string> expected;
    for (const SmokeJob &job : jobs) {
        if (expected.count(job.key))
            continue;
        const nassc::TranspileOptions opts =
            nassc::parse_request_options(job.options).transpile;
        const nassc::TranspileResult local = nassc::TranspileContext::global()
                                                 .transpile(
                                                     nassc::from_qasm(
                                                         job.qasm),
                                                     nassc::montreal_backend(),
                                                     opts);
        expected[job.key] = nassc::to_qasm(local.circuit);
    }

    nassc::RetryingServeClient control(endpoint(args), smoke_policy(args, 0));
    const std::map<std::string, std::uint64_t> before = control.stats();

    std::mutex mu;
    std::vector<std::string> failures;
    nassc::RetryStats retried; // summed across threads
    std::vector<std::thread> threads;
    const int nthreads = args.smoke_threads;
    for (int t = 0; t < nthreads; ++t) {
        threads.emplace_back([&, t] {
            // Retrying client per thread: survives injected worker
            // faults, mid-frame disconnects, and load shedding, with a
            // per-thread jitter stream so retriers decorrelate.
            nassc::RetryingServeClient client(
                endpoint(args),
                smoke_policy(args, static_cast<unsigned>(t) + 1));
            try {
                for (std::size_t i = t; i < jobs.size();
                     i += static_cast<std::size_t>(nthreads)) {
                    const SmokeJob &job = jobs[i];
                    const nassc::ServeResponse resp = client.transpile_qasm(
                        job.qasm, "ibmq_montreal", job.options);
                    if (resp.qasm != expected[job.key]) {
                        std::lock_guard<std::mutex> lk(mu);
                        failures.push_back(
                            job.key + ": daemon QASM differs from local "
                                      "transpile (source=" +
                            resp.source + ")");
                    }
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(mu);
                failures.push_back(std::string("client thread: ") +
                                   e.what());
            }
            const nassc::RetryStats &rs = client.retry_stats();
            std::lock_guard<std::mutex> lk(mu);
            retried.attempts += rs.attempts;
            retried.retries += rs.retries;
            retried.reconnects += rs.reconnects;
            retried.overloaded += rs.overloaded;
            retried.backoff_ms += rs.backoff_ms;
        });
    }
    for (std::thread &th : threads)
        th.join();

    const std::map<std::string, std::uint64_t> after = control.stats();
    auto delta = [&](const char *key) {
        return after.at(key) - before.at(key);
    };

    if (delta("requests") < jobs.size())
        failures.push_back("daemon saw " +
                           std::to_string(delta("requests")) +
                           " transpile requests, expected >= " +
                           std::to_string(jobs.size()));
    if (!args.tolerate_faults) {
        if (delta("transpiles_failed") != 0)
            failures.push_back(std::to_string(delta("transpiles_failed")) +
                               " transpiles failed");
        // The dedup invariant: a fresh daemon transpiles each DISTINCT
        // request exactly once; every duplicate must ride the cache or
        // an in-flight twin.
        if (delta("transpiles_ok") != distinct)
            failures.push_back("dedup violated: " +
                               std::to_string(delta("transpiles_ok")) +
                               " transpiles for " +
                               std::to_string(distinct) +
                               " distinct requests");
        if (delta("cache_hits") + delta("coalesced") !=
            jobs.size() - distinct)
            failures.push_back(
                "dedup accounting off: " +
                std::to_string(delta("cache_hits")) + " hits + " +
                std::to_string(delta("coalesced")) + " coalesced for " +
                std::to_string(jobs.size() - distinct) + " duplicates");
    } else {
        // Injected faults burn transpile attempts, so exact dedup
        // accounting no longer holds; the floor that must: every
        // distinct request eventually transpiled at least once (each
        // response above was checked bit-identical regardless).
        if (delta("transpiles_ok") < distinct)
            failures.push_back("only " +
                               std::to_string(delta("transpiles_ok")) +
                               " transpiles succeeded for " +
                               std::to_string(distinct) +
                               " distinct requests");
    }

    if (!failures.empty()) {
        for (const std::string &f : failures)
            std::fprintf(stderr, "SMOKE FAIL: %s\n", f.c_str());
        return 1;
    }
    std::printf("smoke ok: %zu requests (%zu distinct) on %d threads, "
                "responses bit-identical to local transpile, "
                "%llu hits + %llu coalesced\n",
                jobs.size(), distinct, nthreads,
                static_cast<unsigned long long>(delta("cache_hits")),
                static_cast<unsigned long long>(delta("coalesced")));
    std::printf("smoke retries: %llu attempts, %llu retries, "
                "%llu reconnects, %llu overloaded, %llu ms backing off\n",
                static_cast<unsigned long long>(retried.attempts),
                static_cast<unsigned long long>(retried.retries),
                static_cast<unsigned long long>(retried.reconnects),
                static_cast<unsigned long long>(retried.overloaded),
                static_cast<unsigned long long>(retried.backoff_ms));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "nassc_client: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--unix") {
            args.unix_path = value();
        } else if (arg == "--port") {
            args.port = parse_integer(arg, value(), 1, 65535);
        } else if (arg == "--host") {
            args.host = value();
        } else if (arg == "--backend") {
            args.backend = value();
        } else if (arg == "--option") {
            const std::string kv = value();
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos) {
                std::fprintf(stderr,
                             "nassc_client: --option wants key=value\n");
                return 2;
            }
            args.options.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (arg == "--builtin") {
            args.builtin = value();
        } else if (arg == "--stats") {
            args.stats = true;
        } else if (arg == "--metrics") {
            args.metrics = true;
        } else if (arg == "--smoke") {
            args.smoke_threads = parse_integer(arg, value(), 1, 256);
        } else if (arg == "--tolerate-faults") {
            args.tolerate_faults = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            args.qasm_file = arg;
        }
    }

    try {
        if (args.smoke_threads > 0)
            return run_smoke(args);

        // Single-shot path rides the retrying client too: a daemon
        // still warming up (connect refused) or briefly overloaded
        // should not fail a one-off CLI call.
        nassc::RetryingServeClient client(endpoint(args),
                                          smoke_policy(args, 0));
        if (args.stats) {
            for (const auto &kv : client.stats())
                std::printf("%s %llu\n", kv.first.c_str(),
                            static_cast<unsigned long long>(kv.second));
            return 0;
        }
        if (args.metrics) {
            // Prometheus text exposition verbatim: pipe into a scraper
            // or promtool without post-processing.
            const std::string body = client.metrics();
            std::fputs(body.c_str(), stdout);
            if (!body.empty() && body.back() != '\n')
                std::fputc('\n', stdout);
            return 0;
        }
        std::string qasm;
        if (!args.builtin.empty())
            qasm = nassc::to_qasm(nassc::benchmark_by_name(args.builtin));
        else
            qasm = read_input(args.qasm_file);
        const nassc::ServeResponse resp =
            client.transpile_qasm(qasm, args.backend, args.options);
        std::fprintf(stderr, "source: %s\n", resp.source.c_str());
        if (!resp.trace_id.empty())
            std::fprintf(stderr, "trace-id: %s\n", resp.trace_id.c_str());
        for (const auto &span : resp.spans)
            std::fprintf(stderr, "span %s %llu us\n", span.first.c_str(),
                         static_cast<unsigned long long>(span.second));
        if (resp.degraded)
            std::fprintf(stderr,
                         "degraded: deadline hit after %d layout trial(s)\n",
                         resp.trials_consumed);
        std::fputs(resp.qasm.c_str(), stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nassc_client: %s\n", e.what());
        return 1;
    }
}
