// End-to-end tests for the nasscd serving stack:
//
//  (a) protocol codec — frame payloads round-trip and malformed input
//      fails loudly (serve/protocol.h);
//  (b) the daemon contract — concurrent socket clients receive routed
//      QASM BIT-IDENTICAL to an in-process transpile() of the same
//      circuit, and duplicated requests coalesce into one transpile;
//  (c) single-process hardening on TranspileService — the byte-bounded
//      result cache never exceeds its budget, TTL expiry and backend
//      rotation invalidate eagerly (split eviction counters), and
//      try_cancel() abandons queued requests cooperatively;
//  (d) graceful shutdown — stop() drains received requests to written
//      responses before the daemon exits;
//  (e) hung-peer protection on the client — ServeClient::set_io_timeout
//      surfaces a wedged server as the typed TranspileTransportTimeout,
//      and RetryingServeClient recovers on a fresh connection;
//  (f) caller runs — an idle daemon runs a miss on its connection
//      thread, and a caller run holds a worker's place.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/serve/client.h"
#include "nassc/serve/protocol.h"
#include "nassc/serve/server.h"
#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"
#include "nassc/transpile/context.h"
#include "pinned_worker.h"

namespace nassc {
namespace {

/** Spin until `pred` or ~10 s; returns whether pred came true. */
template <typename Pred>
bool
spin_until(Pred pred)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** A short unix-socket path unique to this process + suffix (sun_path
 *  is only ~107 chars, so the build dir is not usable). */
std::string
socket_path(const std::string &suffix)
{
    return "/tmp/nassc_serve_" + std::to_string(::getpid()) + "_" + suffix +
           ".sock";
}

/** Spin until a worker of `sched` is parked: its place can be
 *  borrowed, so a wire miss runs on its connection thread. */
bool
worker_parked(Scheduler &sched)
{
    return spin_until([&] {
        Scheduler::CallerSlot slot(sched);
        return slot.held();
    });
}

std::shared_ptr<const Backend>
shared_montreal()
{
    return std::make_shared<const Backend>(montreal_backend());
}

// ------------------------------------------------------------ protocol

TEST(ServeProtocol, RequestRoundTrip)
{
    ServeRequest req;
    req.verb = "transpile";
    req.backend = "ibmq_montreal";
    req.options = {{"router", "sabre"}, {"seed", "3"}};
    req.qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
    const ServeRequest back = parse_request(encode_request(req));
    EXPECT_EQ(back.verb, req.verb);
    EXPECT_EQ(back.backend, req.backend);
    EXPECT_EQ(back.options, req.options);
    EXPECT_EQ(back.qasm, req.qasm);

    ServeRequest ping;
    ping.verb = "ping";
    EXPECT_EQ(parse_request(encode_request(ping)).verb, "ping");
}

TEST(ServeProtocol, ResponseRoundTrip)
{
    ServeResponse resp;
    resp.status = "ok";
    resp.source = "cache_hit";
    resp.qasm = "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n";
    const ServeResponse back = parse_response(encode_response(resp));
    EXPECT_EQ(back.status, resp.status);
    EXPECT_EQ(back.source, resp.source);
    EXPECT_EQ(back.qasm, resp.qasm);

    ServeResponse err;
    err.status = "error";
    err.error = "unknown backend 'x'";
    const ServeResponse eback = parse_response(encode_response(err));
    EXPECT_EQ(eback.status, "error");
    EXPECT_EQ(eback.error, err.error);
    EXPECT_TRUE(eback.qasm.empty());
}

TEST(ServeProtocol, MalformedPayloadsThrow)
{
    EXPECT_THROW(parse_request("launch\n"), std::runtime_error);
    EXPECT_THROW(parse_request("transpile\nbogus line\nqasm\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_request("transpile\nbackend x\n"), // no qasm section
                 std::runtime_error);
    EXPECT_THROW(parse_response("status ok\nwat\n"), std::runtime_error);
}

TEST(ServeProtocol, OptionParsingIsStrictAndComplete)
{
    const RequestOptions parsed = parse_request_options(
        {{"router", "sabre"},
         {"seed", "11"},
         {"noise_aware", "1"},
         {"layout_trials", "4"},
         {"extended_weight", "0.25"},
         {"priority", "7"},
         {"cache_ttl_seconds", "2.5"},
         {"trace", "1"}});
    const TranspileOptions &opts = parsed.transpile;
    EXPECT_EQ(opts.router, RoutingAlgorithm::kSabre);
    EXPECT_EQ(opts.seed, 11u);
    EXPECT_TRUE(opts.noise_aware);
    EXPECT_EQ(opts.layout_trials, 4);
    EXPECT_DOUBLE_EQ(opts.extended_weight, 0.25);
    EXPECT_EQ(parsed.policy.priority, 7);
    EXPECT_DOUBLE_EQ(parsed.policy.cache_ttl_seconds, 2.5);
    EXPECT_TRUE(parsed.trace);
    // The last of a repeated key wins.
    EXPECT_FALSE(
        parse_request_options({{"trace", "1"}, {"trace", "false"}}).trace);
    EXPECT_THROW(parse_request_options({{"trace", "yes"}}),
                 std::runtime_error);

    EXPECT_THROW(parse_request_options({{"routr", "sabre"}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"seed", "banana"}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"router", "magic"}}),
                 std::runtime_error);
    EXPECT_EQ(
        parse_request_options({{"deadline_ms", "250"}}).policy.deadline_ms,
        250);
    EXPECT_THROW(parse_request_options({{"deadline_ms", "-1"}}),
                 std::runtime_error);
}

TEST(ServeProtocol, WireKeysAreOutputIdentityPlusPolicy)
{
    // Every field the cache key hashes, the three policy fields and
    // trace parse...
    const std::vector<std::pair<std::string, std::string>> accepted = {
        {"router", "nassc"},          {"seed", "3"},
        {"noise_aware", "0"},         {"enable_c2q", "1"},
        {"enable_commute1", "1"},     {"enable_commute2", "1"},
        {"extended_size", "20"},      {"extended_weight", "0.5"},
        {"layout_iterations", "3"},   {"layout_trials", "1"},
        {"opt_loop_rounds", "4"},
        {"orientation_aware_decomposition", "1"},
        {"use_decay", "1"},           {"region_radius", "0"},
        {"priority", "0"},            {"deadline_ms", "0"},
        {"cache_ttl_seconds", "0"},   {"trace", "0"}};
    for (const auto &kv : accepted)
        EXPECT_NO_THROW(parse_request_options({kv})) << kv.first;
    // ...and the execution knobs are not wire keys: a client could
    // otherwise mint one distance-cache entry per distinct budget, or
    // double the routing work for the same bytes.
    for (const char *key : {"layout_threads", "reuse_routing",
                            "sparse_distance_threshold",
                            "distance_row_budget_bytes"}) {
        try {
            parse_request_options({{key, "0"}});
            ADD_FAILURE() << key << " parsed";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("unknown option '") + key + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ServeProtocol, NonFiniteAndNegativeNumbersAreRejected)
{
    // A non-finite extended_weight used to reach the router and fail as
    // "gate swap: duplicate operand"; an infinite or negative TTL was
    // accepted as is.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"extended_weight", "nan"},       {"extended_weight", "inf"},
        {"extended_weight", "-inf"},      {"extended_weight", "1e400"},
        {"cache_ttl_seconds", "inf"},     {"cache_ttl_seconds", "-inf"},
        {"cache_ttl_seconds", "nan"},     {"cache_ttl_seconds", "-1"},
        {"cache_ttl_seconds", "-0.5"},
    };
    for (const auto &kv : bad) {
        try {
            parse_request_options({kv});
            ADD_FAILURE() << kv.first << "=" << kv.second << " parsed";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("option " + kv.first),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(parse_request_options({{"cache_ttl_seconds", "0"}})
                  .policy.cache_ttl_seconds,
              0.0);
    EXPECT_EQ(parse_request_options({{"extended_weight", "-0.5"}})
                  .transpile.extended_weight,
              -0.5);
}

TEST(ServeProtocol, SeedCoversTheFullUnsignedRange)
{
    EXPECT_EQ(parse_request_options({{"seed", "4294967295"}}).transpile.seed,
              4294967295u);
    EXPECT_EQ(parse_request_options({{"seed", "2147483648"}}).transpile.seed,
              2147483648u);
    EXPECT_EQ(parse_request_options({{"seed", "0"}}).transpile.seed, 0u);
    // Negative seeds used to wrap silently to 2^32 - 1.
    EXPECT_THROW(parse_request_options({{"seed", "-1"}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"seed", "4294967296"}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"seed", ""}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"seed", "12x"}}),
                 std::runtime_error);
}

TEST(ServeProtocol, LayoutSearchSizesAreBounded)
{
    // Parse-level only: at an unbounded parser these requests would
    // allocate 2^31 trials or run ~2^32 routing passes.
    const TranspileOptions at_cap =
        parse_request_options(
            {{"layout_trials", "256"}, {"layout_iterations", "64"}})
            .transpile;
    EXPECT_EQ(at_cap.layout_trials, 256);
    EXPECT_EQ(at_cap.layout_iterations, 64);
    EXPECT_THROW(parse_request_options({{"layout_trials", "257"}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"layout_trials", "2147483647"}}),
                 std::runtime_error);
    EXPECT_THROW(parse_request_options({{"layout_iterations", "65"}}),
                 std::runtime_error);
    EXPECT_THROW(
        parse_request_options({{"layout_iterations", "2147483647"}}),
        std::runtime_error);
}

TEST(ServeProtocol, ResponseRoundTripsRetryHintAndDegraded)
{
    ServeResponse resp;
    resp.status = "overloaded";
    resp.error = "queue full";
    resp.retry_after_ms = 75;
    ServeResponse back = parse_response(encode_response(resp));
    EXPECT_EQ(back.status, "overloaded");
    EXPECT_EQ(back.retry_after_ms, 75);

    ServeResponse degraded;
    degraded.status = "ok";
    degraded.qasm = "OPENQASM 2.0;\nqreg q[1];\n";
    degraded.degraded = true;
    degraded.trials_consumed = 2;
    back = parse_response(encode_response(degraded));
    EXPECT_TRUE(back.degraded);
    EXPECT_EQ(back.trials_consumed, 2);

    // Unset, neither line is emitted and the parse defaults hold.
    ServeResponse plain;
    plain.status = "ok";
    const std::string encoded = encode_response(plain);
    EXPECT_EQ(encoded.find("retry-after-ms"), std::string::npos);
    EXPECT_EQ(encoded.find("degraded"), std::string::npos);
    back = parse_response(encoded);
    EXPECT_EQ(back.retry_after_ms, 0);
    EXPECT_FALSE(back.degraded);
    EXPECT_EQ(back.trials_consumed, -1);
}

TEST(ServeProtocol, FrameLengthParsingRejectsEveryMalformedClass)
{
    // The length field is attacker-controlled; each rejection class has
    // its own corpus entry so a laxer future parser fails this test.
    EXPECT_EQ(parse_frame_length("0"), 0u);
    EXPECT_EQ(parse_frame_length("123"), 123u);
    EXPECT_EQ(parse_frame_length("007"), 7u);

    EXPECT_THROW(parse_frame_length(""), std::runtime_error);      // empty
    EXPECT_THROW(parse_frame_length("abc"), std::runtime_error);   // alpha
    EXPECT_THROW(parse_frame_length("+5"), std::runtime_error);    // sign
    EXPECT_THROW(parse_frame_length("-1"), std::runtime_error);    // negative
    EXPECT_THROW(parse_frame_length(" 5"), std::runtime_error);    // space
    EXPECT_THROW(parse_frame_length("1 2"), std::runtime_error);   // embedded
    EXPECT_THROW(parse_frame_length("12x"), std::runtime_error);   // trailing
    EXPECT_THROW(parse_frame_length("0x10"), std::runtime_error);  // hex
    // One digit past SIZE_MAX: must throw, not wrap.
    EXPECT_THROW(parse_frame_length("99999999999999999999999999"),
                 std::runtime_error);
}

/** A connected socketpair whose ends close on scope exit. */
struct SocketPair
{
    int fds[2] = {-1, -1};
    SocketPair()
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
    }
    ~SocketPair()
    {
        for (int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
};

TEST(ServeProtocol, MalformedFrameHeadersFailLoudlyOnTheWire)
{
    auto reject = [](const std::string &raw) {
        SocketPair sp;
        ASSERT_EQ(::send(sp.fds[0], raw.data(), raw.size(), 0),
                  static_cast<ssize_t>(raw.size()));
        ::shutdown(sp.fds[0], SHUT_WR);
        std::string payload;
        EXPECT_THROW(read_frame(sp.fds[1], payload), std::runtime_error)
            << "header accepted: " << raw;
    };
    reject("BOGUS/9 5\nhello");        // wrong magic
    reject("NASSC/1 +5\nhello");       // signed length
    reject("NASSC/1 -5\nhello");       // negative length
    reject("NASSC/1 5x\nhello");       // trailing junk
    reject("NASSC/1 \nhello");         // empty length
    reject("NASSC/1 99999999999999999999999999\n"); // overflow
    reject("NASSC/1 5\nhi");           // truncated payload (EOF inside)
    reject("NASSC/1 5 00000000deadbeef\nhello"); // token after the length
}

TEST(ServeProtocol, ShortReadAndEintrFailpointsStillReassemble)
{
    failpoint::disarm_all();
    const std::string payload(300, 'x');
    {
        // Every recv clamped to 1 byte: the reassembly loop must still
        // deliver the payload intact.
        failpoint::ScopedFailpoint shortread("protocol.read.short",
                                             "trigger");
        SocketPair sp;
        write_frame(sp.fds[0], payload);
        std::string got;
        ASSERT_TRUE(read_frame(sp.fds[1], got));
        EXPECT_EQ(got, payload);
        EXPECT_GE(failpoint::hit_count("protocol.read.short"),
                  payload.size());
    }
    failpoint::disarm_all();
    {
        // An EINTR storm: five spurious loop re-entries, then normal
        // progress — the reader must neither error nor lose bytes.
        failpoint::ScopedFailpoint storm("protocol.read.eintr",
                                         "5*trigger");
        SocketPair sp;
        write_frame(sp.fds[0], payload);
        std::string got;
        ASSERT_TRUE(read_frame(sp.fds[1], got));
        EXPECT_EQ(got, payload);
        EXPECT_EQ(failpoint::hit_count("protocol.read.eintr"), 5u);
    }
    failpoint::disarm_all();
}

TEST(ServeProtocol, ShortWriteFailpointStillDeliversTheFrame)
{
    failpoint::disarm_all();
    failpoint::ScopedFailpoint shortwrite("protocol.write.short",
                                          "trigger");
    const std::string payload(200, 'y');
    SocketPair sp;
    write_frame(sp.fds[0], payload); // 1 byte per send()
    std::string got;
    ASSERT_TRUE(read_frame(sp.fds[1], got));
    EXPECT_EQ(got, payload);
    EXPECT_GE(failpoint::hit_count("protocol.write.short"),
              payload.size());
}

TEST(ServeProtocol, MidFrameDisconnectFailsBothEndsCleanly)
{
    failpoint::disarm_all();
    failpoint::ScopedFailpoint drop("protocol.write.disconnect",
                                    "1*trigger");
    const std::string payload(400, 'z'); // half-frame > header line
    SocketPair sp;
    EXPECT_THROW(write_frame(sp.fds[0], payload), std::runtime_error);
    // The reader sees a truncated payload and must FAIL, never hang.
    std::string got;
    EXPECT_THROW(read_frame(sp.fds[1], got), std::runtime_error);
    EXPECT_EQ(failpoint::hit_count("protocol.write.disconnect"), 1u);
}

/** Send all of `bytes` on `fd`. */
void
send_all(int fd, const std::string &bytes)
{
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
}

TEST(ServeProtocol, PipelinedFramesReadOneAtATime)
{
    // Both frames are queued before the first read: the header read
    // must not run into the payload, nor the payload into the next
    // frame's header.
    SocketPair sp;
    write_frame(sp.fds[0], "first");
    write_frame(sp.fds[0], std::string(300, 'y'));
    ::shutdown(sp.fds[0], SHUT_WR);
    std::string got;
    ASSERT_TRUE(read_frame(sp.fds[1], got));
    EXPECT_EQ(got, "first");
    ASSERT_TRUE(read_frame(sp.fds[1], got));
    EXPECT_EQ(got, std::string(300, 'y'));
    EXPECT_FALSE(read_frame(sp.fds[1], got)); // clean EOF between frames
}

TEST(ServeProtocol, HeaderSplitAcrossSendsIsReassembled)
{
    // The writer pauses mid-header, so the reader peeks a partial
    // header and must wait for the rest; the last send completes the
    // payload after its first two bytes arrived with the header.  The
    // hang-up after it turns a reader that lost bytes into an error,
    // not a hang.
    SocketPair sp;
    std::thread writer([&] {
        for (const char *part : {"NAS", "SC/1 5\nhe", "llo"}) {
            send_all(sp.fds[0], part);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        ::shutdown(sp.fds[0], SHUT_WR);
    });
    std::string got;
    bool read = false;
    EXPECT_NO_THROW(read = read_frame(sp.fds[1], got));
    writer.join();
    ASSERT_TRUE(read);
    EXPECT_EQ(got, "hello");

    // A peer that hangs up mid-header is an error, not a clean EOF.
    SocketPair cut;
    send_all(cut.fds[0], "NASSC/1 ");
    ::shutdown(cut.fds[0], SHUT_WR);
    try {
        read_frame(cut.fds[1], got);
        ADD_FAILURE() << "EOF inside the header was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("EOF inside header"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeProtocol, RunawayHeaderThrowsAtSixtyFiveBytes)
{
    auto read_header = [](const std::string &raw) {
        SocketPair sp;
        send_all(sp.fds[0], raw);
        ::shutdown(sp.fds[0], SHUT_WR);
        std::string payload;
        return read_frame(sp.fds[1], payload);
    };
    for (const std::size_t n : {65u, 66u, 200u}) {
        try {
            read_header(std::string(n, '7'));
            ADD_FAILURE() << n << " header bytes accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("runaway frame header"),
                      std::string::npos)
                << e.what();
        }
    }
    // 64 bytes and a newline is a header: it fails on its contents
    // (bad magic), not on its length.
    try {
        read_header(std::string(64, '7') + "\n");
        ADD_FAILURE() << "a 64-byte bogus header was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad frame magic"),
                  std::string::npos)
            << e.what();
    }
    // A header whose newline is its 65th byte is accepted.
    const std::string header =
        "NASSC/1 " + std::string(55, '0') + "5\n" + "hello";
    EXPECT_TRUE(read_header(header));
}

TEST(Failpoint, MalformedSpecsAndUnknownActionsAreRejected)
{
    // A typo'd NASSC_FAILPOINTS profile must fail daemon startup, not
    // silently test nothing.  `abort` is not an action: nothing would
    // restart a daemon it killed.
    for (const char *spec : {"abort", "abort()", "1*abort(boom)", "bogus",
                             "0*trigger", "sleep", "sleep(x)", "throw(oops"})
        EXPECT_THROW(failpoint::arm("test.grammar", spec),
                     std::invalid_argument)
            << spec;
    EXPECT_FALSE(failpoint::disarm("test.grammar"));
}

// ------------------------------------------------------- daemon e2e

TEST(NasscServer, ConcurrentClientsGetBitIdenticalQasmAndDedup)
{
    ServerOptions options;
    options.unix_path = socket_path("e2e");
    NasscServer server(options);
    server.start();

    // Workload: 2 circuits x 2 routers, each submitted by BOTH client
    // threads (duplicates must coalesce or hit).
    struct Item
    {
        std::string qasm;
        std::vector<std::pair<std::string, std::string>> options;
        std::string expected;
    };
    std::vector<Item> items;
    for (const QuantumCircuit &qc : {ghz(8), qft(5)}) {
        for (const char *router : {"nassc", "sabre"}) {
            Item item;
            item.qasm = to_qasm(qc);
            item.options = {{"router", router}, {"seed", "1"}};
            const TranspileResult local =
                TranspileContext::global().transpile(
                    from_qasm(item.qasm), montreal_backend(),
                    parse_request_options(item.options).transpile);
            item.expected = to_qasm(local.circuit);
            items.push_back(std::move(item));
        }
    }

    const ServiceStats before = server.service().stats();
    std::vector<std::string> errors;
    std::mutex mu;
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&] {
            try {
                ServeClient client =
                    ServeClient::connect_unix(options.unix_path);
                for (const Item &item : items) {
                    const ServeResponse resp = client.transpile_qasm(
                        item.qasm, "ibmq_montreal", item.options);
                    if (resp.qasm != item.expected) {
                        std::lock_guard<std::mutex> lk(mu);
                        errors.push_back("daemon QASM differs (source=" +
                                         resp.source + ")");
                    }
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(mu);
                errors.push_back(e.what());
            }
        });
    }
    for (std::thread &th : clients)
        th.join();
    for (const std::string &e : errors)
        ADD_FAILURE() << e;

    // Dedup invariant: 8 requests, 4 distinct keys -> exactly 4
    // transpiles; every duplicate was a hit or coalesced.
    const ServiceStats after = server.service().stats();
    EXPECT_EQ(after.requests - before.requests, 8u);
    EXPECT_EQ(after.transpiles_ok - before.transpiles_ok, 4u);
    EXPECT_EQ((after.cache_hits + after.coalesced) -
                  (before.cache_hits + before.coalesced),
              4u);
    EXPECT_EQ(after.transpiles_failed, before.transpiles_failed);

    server.stop();
}

TEST(NasscServer, TcpTransportServesPingStatsAndTranspile)
{
    ServerOptions options;
    options.tcp_port = 0; // ephemeral
    NasscServer server(options);
    server.start();
    ASSERT_GT(server.tcp_port(), 0);

    ServeClient client = ServeClient::connect_tcp("127.0.0.1",
                                                  server.tcp_port());
    EXPECT_TRUE(client.ping());

    const std::string qasm = to_qasm(ghz(5));
    const ServeResponse resp =
        client.transpile_qasm(qasm, "grid_5x5", {{"router", "nassc"}});
    EXPECT_EQ(resp.status, "ok");
    EXPECT_EQ(resp.source, "transpiled");
    const TranspileResult local = TranspileContext::global().transpile(
        from_qasm(qasm), grid_backend(), TranspileOptions{});
    EXPECT_EQ(resp.qasm, to_qasm(local.circuit));

    const auto stats = client.stats();
    EXPECT_GE(stats.at("requests"), 1u);
    EXPECT_EQ(stats.at("transpiles_ok"), 1u);
    // Distance-cache observability rides on the same scrape: the one
    // transpile above computed the grid_5x5 hop rows it touched.  The
    // row cache has no byte budget at 25 qubits, so nothing is evicted
    // and resident bytes are exactly rows * n doubles.
    EXPECT_GE(stats.at("distance_entries"), 1u);
    EXPECT_GE(stats.at("distance_computations"), 1u);
    EXPECT_GE(stats.at("distance_rows_computed"), 1u);
    EXPECT_EQ(stats.at("distance_row_bytes"),
              stats.at("distance_rows_computed") * 25 * sizeof(double));
    EXPECT_EQ(stats.at("distance_row_bytes_peak"),
              stats.at("distance_row_bytes"));
    server.stop();
}

TEST(NasscServer, StatsViewCoversEveryServiceRowAndTheVerbIsRetired)
{
    ServerOptions options;
    options.unix_path = socket_path("statrows");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);

    const std::string qasm = to_qasm(ghz(4));
    for (const char *source : {"transpiled", "cache_hit"}) {
        const ServeResponse resp = client.transpile_qasm(qasm, "grid_5x5");
        EXPECT_EQ(resp.status, "ok");
        EXPECT_EQ(resp.source, source);
    }

    // stats() is the row view of the metrics body: every ServiceStats
    // and DistanceCache::Stats field, equal to the in-process snapshot.
    const std::map<std::string, std::uint64_t> rows = client.stats();
    const ServiceStats s = server.service().stats();
    const DistanceCache::Stats d = server.service().distance_cache().stats();
    const std::map<std::string, std::uint64_t> want = {
        {"requests", s.requests},
        {"cache_hits", s.cache_hits},
        {"text_hits", s.text_hits},
        {"coalesced", s.coalesced},
        {"misses", s.misses},
        {"caller_runs", s.caller_runs},
        {"evictions_capacity", s.evictions_capacity},
        {"evictions_invalidated", s.evictions_invalidated},
        {"cancelled", s.cancelled},
        {"shed", s.shed},
        {"deadline_exceeded", s.deadline_exceeded},
        {"transpiles_ok", s.transpiles_ok},
        {"transpiles_failed", s.transpiles_failed},
        {"synth_memo_hits", s.synth_memo_hits},
        {"synth_memo_misses", s.synth_memo_misses},
        {"synth_memos", s.synth_memos},
        {"cache_size", s.cache_size},
        {"cache_bytes", s.cache_bytes},
        {"inflight", s.inflight},
        {"distance_entries", d.entries},
        {"distance_computations", d.computations},
        {"distance_hits", d.hits},
        {"distance_evictions_invalidated", d.evictions_invalidated},
        {"distance_rows_computed", d.rows_computed},
        {"distance_row_hits", d.row_hits},
        {"distance_rows_evicted", d.rows_evicted},
        {"distance_row_bytes", d.row_bytes},
        {"distance_row_bytes_peak", d.row_bytes_peak},
    };
    ASSERT_EQ(want.size(), 28u);
    for (const auto &kv : want) {
        ASSERT_TRUE(rows.count(kv.first)) << kv.first;
        EXPECT_EQ(rows.at(kv.first), kv.second) << kv.first;
    }
    EXPECT_EQ(rows.at("requests"), 2u);
    EXPECT_EQ(rows.at("cache_hits"), 1u);
    EXPECT_EQ(rows.at("text_hits"), 1u); // the repeat matched by text
    EXPECT_EQ(rows.at("transpiles_ok"), 1u);
    EXPECT_GT(rows.at("synth_memo_misses"), 0u); // the one transpile
    EXPECT_EQ(rows.at("synth_memos"), 1u);

    // The `stats` wire verb is gone: an unknown verb, answered with
    // status error on a connection that keeps serving.
    ServeRequest stats_req;
    stats_req.verb = "stats";
    const ServeResponse retired = client.request(stats_req);
    EXPECT_EQ(retired.status, "error");
    EXPECT_TRUE(client.ping());
    server.stop();
}

TEST(NasscServer, BadRequestsGetErrorStatusAndConnectionSurvives)
{
    ServerOptions options;
    options.unix_path = socket_path("err");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);

    ServeRequest req;
    req.verb = "transpile";
    req.backend = "no_such_device";
    req.qasm = to_qasm(ghz(3));
    ServeResponse resp = client.request(req);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("unknown backend"), std::string::npos);

    req.backend = "ibmq_montreal";
    req.options = {{"router", "warp_drive"}};
    resp = client.request(req);
    EXPECT_EQ(resp.status, "error");

    req.options.clear();
    req.qasm = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
    resp = client.request(req);
    EXPECT_EQ(resp.status, "error");

    // A NaN angle would otherwise flow through the passes and come back
    // "ok" as a wrong circuit.
    req.qasm = "OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz(0/0) q[0];\n"
               "h q[0];\n";
    resp = client.request(req);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("'rz'"), std::string::npos) << resp.error;

    // Every bad request failed before submit() admitted it, so none
    // reached a worker.
    EXPECT_EQ(server.service().stats().requests, 0u);

    // The connection survives application errors: a good request after
    // four bad ones still works.
    req.qasm = to_qasm(ghz(3));
    resp = client.request(req);
    EXPECT_EQ(resp.status, "ok");
    server.stop();
}

TEST(NasscServer, StopDrainsReceivedRequestsToResponses)
{
    ServerOptions options;
    options.unix_path = socket_path("drain");
    NasscServer server(options);
    server.start();

    // Client sends one request, then the server is stopped while it is
    // (likely still) transpiling; the response must arrive anyway.
    std::string got_qasm;
    std::string got_status;
    std::thread client_thread([&] {
        try {
            ServeClient client =
                ServeClient::connect_unix(options.unix_path);
            const ServeResponse resp = client.transpile_qasm(
                to_qasm(qft(6)), "ibmq_montreal", {{"router", "nassc"}});
            got_status = resp.status;
            got_qasm = resp.qasm;
        } catch (const std::exception &e) {
            got_status = std::string("exception: ") + e.what();
        }
    });

    // Wait until the daemon has DECODED the frame, then stop: the
    // request is in flight and must drain.
    ASSERT_TRUE(spin_until([&] { return server.requests_seen() >= 1; }));
    server.stop();
    client_thread.join();

    EXPECT_EQ(got_status, "ok");
    const TranspileResult local = TranspileContext::global().transpile(
        qft(6), montreal_backend(), TranspileOptions{});
    EXPECT_EQ(got_qasm, to_qasm(local.circuit));

    // And the listener is really gone.
    EXPECT_THROW(ServeClient::connect_unix(options.unix_path),
                 std::runtime_error);
}

TEST(NasscServer, RegisteredBackendRotationInvalidatesEagerly)
{
    ServerOptions options;
    options.unix_path = socket_path("rot");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);

    const std::string qasm = to_qasm(ghz(6));
    ServeResponse first =
        client.transpile_qasm(qasm, "ibmq_montreal", {});
    EXPECT_EQ(first.source, "transpiled");
    ServeResponse again =
        client.transpile_qasm(qasm, "ibmq_montreal", {});
    EXPECT_EQ(again.source, "cache_hit");

    // Rotate the calibration under the same name (new cache_key).
    Backend rotated = montreal_backend();
    rotated.calibration.error_cx.begin()->second *= 2.0;
    server.register_backend(std::make_shared<const Backend>(rotated));

    ServeResponse after =
        client.transpile_qasm(qasm, "ibmq_montreal", {});
    EXPECT_EQ(after.source, "transpiled"); // stale generation swept
    const ServiceStats stats = server.service().stats();
    EXPECT_GE(stats.evictions_invalidated, 1u);
    server.stop();
}

TEST(NasscServer, DeadlineExceededAndDegradedMapOntoTheWire)
{
    // One scheduler worker keeps the layout trials sequential, so the
    // failpoint-slowed first trial deterministically overruns the
    // request deadline (no sleep race).
    failpoint::disarm_all();
    ServerOptions options;
    options.unix_path = socket_path("deadline");
    options.service.scheduler = std::make_shared<Scheduler>(1);
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);
    const std::string qasm = to_qasm(ghz(5));

    {
        // Budget burned before any trial completes -> typed status.
        failpoint::ScopedFailpoint stall("service.transpile",
                                         "1*sleep(1500)");
        ServeRequest req;
        req.verb = "transpile";
        req.backend = "ibmq_montreal";
        req.options = {{"router", "sabre"}, {"deadline_ms", "1000"},
                       {"layout_trials", "1"}};
        req.qasm = qasm;
        const auto t0 = std::chrono::steady_clock::now();
        const ServeResponse resp = client.request(req);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0);
        EXPECT_EQ(resp.status, "deadline_exceeded");
        EXPECT_FALSE(resp.error.empty());
        EXPECT_TRUE(resp.qasm.empty());
        EXPECT_LT(elapsed.count(), 2000); // settles within 2x deadline
    }
    {
        // First trial overruns, three are skipped -> a DEGRADED ok.
        failpoint::ScopedFailpoint slow("layout.trial", "1*sleep(1500)");
        ServeRequest req;
        req.verb = "transpile";
        req.backend = "ibmq_montreal";
        req.options = {{"router", "sabre"}, {"deadline_ms", "1000"},
                       {"layout_trials", "4"}};
        req.qasm = qasm;
        const auto t0 = std::chrono::steady_clock::now();
        const ServeResponse resp = client.request(req);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0);
        EXPECT_EQ(resp.status, "ok");
        EXPECT_TRUE(resp.degraded);
        EXPECT_GE(resp.trials_consumed, 1);
        EXPECT_LT(resp.trials_consumed, 4);
        EXPECT_FALSE(resp.qasm.empty());
        EXPECT_LT(elapsed.count(), 2000);
    }
    // Deadline-free requests are untouched by any of this machinery:
    // same bytes as an in-process transpile.
    const ServeResponse plain =
        client.transpile_qasm(qasm, "ibmq_montreal", {{"router", "sabre"}});
    TranspileOptions lopts;
    lopts.router = RoutingAlgorithm::kSabre;
    const TranspileResult local = TranspileContext::global().transpile(
        from_qasm(qasm), montreal_backend(), lopts);
    EXPECT_EQ(plain.qasm, to_qasm(local.circuit));
    EXPECT_FALSE(plain.degraded);
    server.stop();
    failpoint::disarm_all();
}

TEST(NasscServer, QueueSaturationShedsWithRetryHintAndClientRecovers)
{
    // Pin the service's only worker so the first request stays queued;
    // with max_queued=1 the second DISTINCT request must be shed with
    // `status overloaded` + the configured retry hint, while the
    // accepted request completes once the worker frees up.
    failpoint::disarm_all();
    auto sched = std::make_shared<Scheduler>(1);
    PinnedWorker hostage(*sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    ServerOptions options;
    options.unix_path = socket_path("shed");
    options.service.scheduler = sched;
    options.service.max_queued = 1;
    options.retry_after_ms = 75;
    NasscServer server(options);
    server.start();

    // Accepted request, on its own connection thread (it blocks).
    std::string accepted_status, accepted_qasm;
    std::thread first([&] {
        try {
            ServeClient c = ServeClient::connect_unix(options.unix_path);
            const ServeResponse resp = c.transpile_qasm(
                to_qasm(ghz(5)), "ibmq_montreal", {{"router", "sabre"}});
            accepted_status = resp.status;
            accepted_qasm = resp.qasm;
        } catch (const std::exception &e) {
            accepted_status = std::string("exception: ") + e.what();
        }
    });
    ASSERT_TRUE(
        spin_until([&] { return server.service().stats().misses >= 1; }));

    // Distinct request while the queue is full: shed, not queued.
    ServeClient shed_client = ServeClient::connect_unix(options.unix_path);
    ServeRequest req;
    req.verb = "transpile";
    req.backend = "ibmq_montreal";
    req.options = {{"router", "sabre"}};
    req.qasm = to_qasm(qft(5));
    const ServeResponse shed = shed_client.request(req);
    EXPECT_EQ(shed.status, "overloaded");
    EXPECT_EQ(shed.retry_after_ms, 75);
    EXPECT_EQ(server.service().stats().shed, 1u);

    // A retrying client parked on the same request succeeds once the
    // worker frees up — the overloaded responses are absorbed by its
    // backoff loop (which honors the 75 ms hint).
    std::string retried_status;
    std::thread retrier([&] {
        ServeEndpoint ep;
        ep.unix_path = options.unix_path;
        RetryPolicy policy;
        policy.max_attempts = 20;
        policy.base_backoff_ms = 5;
        policy.max_backoff_ms = 200;
        RetryingServeClient rc(ep, policy);
        try {
            retried_status = rc.request(req).status;
        } catch (const std::exception &e) {
            retried_status = std::string("exception: ") + e.what();
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    hostage.release();
    first.join();
    retrier.join();

    EXPECT_EQ(accepted_status, "ok");
    TranspileOptions lopts;
    lopts.router = RoutingAlgorithm::kSabre;
    const TranspileResult local = TranspileContext::global().transpile(
        ghz(5), montreal_backend(), lopts);
    EXPECT_EQ(accepted_qasm, to_qasm(local.circuit));
    EXPECT_EQ(retried_status, "ok");
    server.stop();
}

TEST(NasscServer, ClientHangupCancelsItsQueuedRequest)
{
    // Pin the service's only worker so a transpile stays queued, then
    // let its client close the socket before the answer.  The
    // connection thread's probe between wait slices must see the
    // hangup, try_cancel the job, and exit.
    failpoint::disarm_all();
    auto sched = std::make_shared<Scheduler>(1);
    PinnedWorker hostage(*sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    ServerOptions options;
    options.unix_path = socket_path("hangup");
    options.service.scheduler = sched;
    // A second client is served only once the first connection's
    // thread has exited; until then it is shed.
    options.max_connections = 1;
    NasscServer server(options);
    server.start();

    {
        ServeClient gone = ServeClient::connect_unix(options.unix_path);
        ServeRequest req;
        req.verb = "transpile";
        req.backend = "ibmq_montreal";
        req.qasm = to_qasm(ghz(5));
        write_frame(gone.fd(), encode_request(req));
        EXPECT_TRUE(
            spin_until([&] { return server.service().stats().misses == 1; }));
    } // closes the socket with the request still queued

    // No ASSERT before the release below: a missed hangup would leave
    // the connection thread waiting on the pinned worker forever.
    const bool cancelled =
        spin_until([&] { return server.service().stats().cancelled == 1; });
    EXPECT_TRUE(cancelled);
    EXPECT_TRUE(cancelled && spin_until([&] {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    try {
                        return ServeClient::connect_unix(options.unix_path)
                            .ping();
                    } catch (const std::exception &) {
                        return false;
                    }
                }));

    hostage.release();
    server.stop();
    const ServiceStats stats = server.service().stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.transpiles_ok, 0u); // the cancelled job never ran
    EXPECT_EQ(stats.inflight, 0u);
}

TEST(NasscServer, IdleDaemonRunsAMissOnItsConnectionThread)
{
    ServerOptions options;
    options.unix_path = socket_path("callerrun");
    options.service.scheduler = std::make_shared<Scheduler>(2);
    NasscServer server(options);
    server.start();
    ASSERT_TRUE(worker_parked(server.service().scheduler()));

    ServeClient client = ServeClient::connect_unix(options.unix_path);
    const std::string qasm = to_qasm(bernstein_vazirani(3, 0b11));
    const std::vector<std::pair<std::string, std::string>> wire = {
        {"router", "nassc"}, {"seed", "17"}};
    const ServeResponse resp =
        client.transpile_qasm(qasm, "ibmq_montreal", wire);
    EXPECT_EQ(resp.status, "ok");
    EXPECT_EQ(resp.source, "transpiled"); // whichever thread ran it
    const ServiceStats stats = server.service().stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.caller_runs, 1u);

    const TranspileResult local = transpile(
        from_qasm(qasm), montreal_backend(),
        parse_request_options(wire).transpile);
    EXPECT_EQ(resp.qasm, to_qasm(local.circuit));
    server.stop();
}

TEST(NasscServer, CallerRunHoldsTheOnlyWorkersPlace)
{
    // One worker: client A's miss runs on its connection thread in the
    // worker's place and stalls there.  Client B's distinct miss cannot
    // borrow that place and must not run beside A either (running
    // transpiles never exceed num_threads()): it queues, and starts
    // only once A has finished.
    failpoint::disarm_all();
    ServerOptions options;
    options.unix_path = socket_path("oneplace");
    options.service.scheduler = std::make_shared<Scheduler>(1);
    NasscServer server(options);
    server.start();
    ASSERT_TRUE(worker_parked(server.service().scheduler()));

    const std::string qasm_a = to_qasm(ghz(5));
    const std::string qasm_b = to_qasm(ghz(4));
    auto send = [&options](const std::string &qasm, ServeResponse *out) {
        return std::thread([&options, qasm, out] {
            try {
                ServeClient c = ServeClient::connect_unix(options.unix_path);
                *out = c.transpile_qasm(qasm, "ibmq_montreal");
            } catch (const std::exception &e) {
                out->status = std::string("exception: ") + e.what();
            }
        });
    };
    ServeResponse resp_a, resp_b;
    {
        failpoint::ScopedFailpoint stall("service.transpile",
                                         "1*sleep(1500)");
        // No ASSERT while the clients run: their threads must be joined.
        std::thread a = send(qasm_a, &resp_a);
        EXPECT_TRUE(spin_until(
            [&] { return server.service().stats().caller_runs == 1; }));
        std::thread b = send(qasm_b, &resp_b);
        EXPECT_TRUE(
            spin_until([&] { return server.service().stats().misses == 2; }));
        // A tiny ghz transpile takes well under a millisecond: had B
        // run beside the stalled A, it would have finished by now.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const ServiceStats mid = server.service().stats();
        EXPECT_EQ(mid.transpiles_ok, 0u);
        EXPECT_EQ(mid.inflight, 2u);
        EXPECT_EQ(mid.caller_runs, 1u); // B queued
        a.join();
        b.join();
    }

    EXPECT_EQ(resp_a.status, "ok");
    EXPECT_EQ(resp_b.status, "ok");
    EXPECT_EQ(resp_b.source, "transpiled");
    EXPECT_EQ(resp_b.qasm,
              to_qasm(transpile(ghz(4), montreal_backend()).circuit));
    const ServiceStats stats = server.service().stats();
    EXPECT_EQ(stats.transpiles_ok, 2u);
    EXPECT_EQ(stats.caller_runs, 1u);
    server.stop();
    failpoint::disarm_all();
}

TEST(NasscServer, WireHitsServeTheEntrysTextByteForByte)
{
    // Miss, then two hits of one key: all three bodies equal to_qasm of
    // an in-process transpile.  The miss keeps the request text and
    // attaches the output text to the cache entry once; the hits find
    // the entry by request text and add nothing.
    ServerOptions options;
    options.unix_path = socket_path("encode_once");
    NasscServer server(options);
    server.start();
    const QuantumCircuit qc = qft(6);
    const std::string expected = to_qasm(
        TranspileContext::global().transpile(qc, montreal_backend()).circuit);

    std::size_t entry_bytes = 0; // the same entry before any encode
    {
        TranspileService probe;
        probe.submit(qc, shared_montreal()).get();
        entry_bytes = probe.stats().cache_bytes;
    }

    ServeClient client = ServeClient::connect_unix(options.unix_path);
    const std::string request = to_qasm(qc);
    const std::vector<std::string> sources = {"transpiled", "cache_hit",
                                              "cache_hit"};
    for (const std::string &source : sources) {
        const ServeResponse resp =
            client.transpile_qasm(request, "ibmq_montreal", {});
        ASSERT_EQ(resp.status, "ok") << resp.error;
        EXPECT_EQ(resp.source, source);
        EXPECT_EQ(resp.qasm, expected);
        const ServiceStats stats = server.service().stats();
        EXPECT_EQ(stats.cache_size, 1u);
        EXPECT_EQ(stats.cache_bytes,
                  entry_bytes + request.size() + expected.size());
    }
    EXPECT_EQ(server.service().stats().text_hits, 2u);
    server.stop();
}

TEST(NasscServer, RequestsDifferingOnlyInPolicyShareOneAnswer)
{
    // The cache key hashes output identity only.  Each later request
    // differs from the first in one policy option or the trace flag, so
    // it must answer from the first request's entry, byte for byte.
    ServerOptions options;
    options.unix_path = socket_path("policy");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);
    const std::string qasm = to_qasm(qft(5));
    const std::vector<std::pair<std::string, std::string>> base = {
        {"router", "sabre"}, {"seed", "5"}};
    const ServeResponse first =
        client.transpile_qasm(qasm, "ibmq_montreal", base);
    EXPECT_EQ(first.source, "transpiled");

    const std::vector<std::pair<std::string, std::string>> differences = {
        {"priority", "5"},     {"deadline_ms", "60000"},
        {"cache_ttl_seconds", "3600"}, {"trace", "1"}};
    for (const auto &difference : differences) {
        auto opts = base;
        opts.push_back(difference);
        const ServeResponse resp =
            client.transpile_qasm(qasm, "ibmq_montreal", opts);
        EXPECT_EQ(resp.source, "cache_hit") << difference.first;
        EXPECT_EQ(resp.qasm, first.qasm) << difference.first;
    }
    const ServiceStats stats = server.service().stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.cache_hits, differences.size());
    server.stop();
}

TEST(NasscServer, OverflowingExtendedWeightAnswersAClearError)
{
    // A finite weight so large that every lookahead score overflows to
    // +inf leaves no SWAP candidate comparable; the request must fail
    // naming the option, not with a malformed-gate error from deep in
    // the router.
    ServerOptions options;
    options.unix_path = socket_path("weight");
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);
    ServeRequest req;
    req.verb = "transpile";
    req.backend = "ibmq_montreal";
    req.options = {{"router", "sabre"}, {"extended_weight", "1e308"}};
    req.qasm = to_qasm(benchmark_by_name("qft_n15"));
    const ServeResponse resp = client.request(req);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("extended_weight"), std::string::npos)
        << resp.error;
    server.stop();
}

TEST(NasscServer, ConnectionCapShedsWithOneOverloadedFrame)
{
    ServerOptions options;
    options.unix_path = socket_path("conncap");
    options.max_connections = 1;
    options.retry_after_ms = 30;
    NasscServer server(options);
    server.start();

    // First connection occupies the one slot (ping proves it is live
    // and registered server-side).
    ServeClient keeper = ServeClient::connect_unix(options.unix_path);
    EXPECT_TRUE(keeper.ping());

    // Second connection: accepted then immediately shed.  The client
    // MAY see the courtesy overloaded frame or may lose the race to the
    // close (EPIPE/reset); the shed counter is the reliable signal.
    {
        ServeClient extra = ServeClient::connect_unix(options.unix_path);
        ASSERT_TRUE(spin_until([&] {
            return server.connections_shed() >= 1;
        }));
        try {
            std::string payload;
            if (read_frame(extra.fd(), payload)) {
                const ServeResponse resp = parse_response(payload);
                EXPECT_EQ(resp.status, "overloaded");
                EXPECT_EQ(resp.retry_after_ms, 30);
            }
        } catch (const std::exception &) {
            // Connection already torn down: equally acceptable.
        }
    }
    // The kept connection was never disturbed.
    EXPECT_TRUE(keeper.ping());

    // Dropping it frees the slot; a retrying client gets through even
    // if it first races the server's reaping of the dead connection.
    { ServeClient gone = std::move(keeper); } // close
    ServeEndpoint ep;
    ep.unix_path = options.unix_path;
    RetryPolicy policy;
    policy.max_attempts = 20;
    policy.base_backoff_ms = 5;
    policy.max_backoff_ms = 100;
    RetryingServeClient rc(ep, policy);
    EXPECT_TRUE(rc.ping());
    server.stop();
}

// ------------------------------------------- hung-peer typed timeout

TEST(ServeClientTimeout, WedgedServerThrowsTypedTimeout)
{
    ServerOptions options;
    options.unix_path = socket_path("wedge");
    NasscServer server(options);
    server.start();

    failpoint::ScopedFailpoint hang("service.transpile", "1*sleep(1500)");
    ServeClient client = ServeClient::connect_unix(server.unix_path());
    client.set_io_timeout(300);
    const std::string qasm = to_qasm(ghz(4));
    EXPECT_THROW(client.transpile_qasm(qasm, "ibmq_montreal",
                                       {{"router", "sabre"}}),
                 TranspileTransportTimeout);
    server.stop();
}

TEST(ServeClientTimeout, RetryingClientRecoversOnAFreshConnection)
{
    ServerOptions options;
    options.unix_path = socket_path("wedge_retry");
    NasscServer server(options);
    server.start();

    failpoint::ScopedFailpoint hang("service.transpile", "1*sleep(1200)");
    ServeEndpoint endpoint;
    endpoint.unix_path = server.unix_path();
    RetryPolicy policy;
    policy.io_timeout_ms = 300;
    policy.base_backoff_ms = 5;
    policy.max_backoff_ms = 50;
    // Every retried attempt COALESCES onto the still-sleeping in-flight
    // transpile (same key, same service), so each times out until the
    // sleep drains at 1.2 s — the attempt budget must outlast it.
    policy.max_attempts = 12;
    RetryingServeClient client(endpoint, policy);
    // First attempt times out on the wedged worker; the retry dials a
    // fresh connection and (sleep charge burnt) succeeds.
    const std::string qasm = to_qasm(ghz(4));
    const ServeResponse resp =
        client.transpile_qasm(qasm, "ibmq_montreal", {{"router", "sabre"}});
    EXPECT_EQ(resp.status, "ok");
    EXPECT_GE(client.retry_stats().retries, 1u);
    EXPECT_GE(client.retry_stats().reconnects, 2u);
    server.stop();
}

// --------------------------------------- service hardening (no sockets)

TEST(TranspileService, CacheByteBudgetIsNeverExceeded)
{
    // Measure one entry's cost with an unbounded service first.
    std::size_t one_entry = 0;
    {
        ServiceOptions unbounded;
        unbounded.cache_max_bytes = 0;
        TranspileService probe(unbounded);
        probe.submit(ghz(6), shared_montreal()).get();
        one_entry = probe.stats().cache_bytes;
        ASSERT_GT(one_entry, 0u);
    }

    // Budget for ~1.5 similar entries: the second insert must evict the
    // first (capacity eviction), never exceed the budget.  The second
    // arrives as text, which its entry keeps and is charged for.
    ServiceOptions opts;
    opts.cache_max_bytes = one_entry + one_entry / 2;
    TranspileService service(opts);
    service.submit(ghz(6), shared_montreal()).get();
    EXPECT_LE(service.stats().cache_bytes, opts.cache_max_bytes);
    service.submit_qasm(to_qasm(ghz(7)), shared_montreal()).get();
    const ServiceStats stats = service.stats();
    EXPECT_LE(stats.cache_bytes, opts.cache_max_bytes);
    EXPECT_EQ(stats.cache_size, 1u);
    EXPECT_GE(stats.evictions_capacity, 1u);
    EXPECT_EQ(stats.evictions_invalidated, 0u);

    // An entry larger than the WHOLE budget is served but never cached.
    ServiceOptions tiny;
    tiny.cache_max_bytes = 64; // smaller than any real entry
    TranspileService crumbs(tiny);
    TranspileTicket t = crumbs.submit(ghz(6), shared_montreal());
    EXPECT_FALSE(t.get()->circuit.empty());
    EXPECT_EQ(crumbs.stats().cache_size, 0u);
    EXPECT_EQ(crumbs.stats().cache_bytes, 0u);
    // ...and the next identical request is a miss, not a hit.
    TranspileTicket r = crumbs.submit(ghz(6), shared_montreal());
    r.get();
    EXPECT_EQ(crumbs.stats().cache_hits, 0u);

    // A submit_qasm entry is charged for the request text it keeps: one
    // byte short of entry + text, it is served but never cached...
    const std::string text = to_qasm(ghz(6));
    ServiceOptions short_by_one;
    short_by_one.cache_max_bytes = one_entry + text.size() - 1;
    TranspileService texted(short_by_one);
    EXPECT_FALSE(texted.submit_qasm(text, shared_montreal())
                     .get()
                     ->circuit.empty());
    EXPECT_EQ(texted.stats().cache_size, 0u);
    EXPECT_EQ(texted.stats().cache_bytes, 0u);
    // ...and at exactly that size it is cached, text included.
    ServiceOptions exact;
    exact.cache_max_bytes = one_entry + text.size();
    TranspileService fits(exact);
    fits.submit_qasm(text, shared_montreal()).get();
    EXPECT_EQ(fits.stats().cache_size, 1u);
    EXPECT_EQ(fits.stats().cache_bytes, one_entry + text.size());
}

TEST(TranspileService, TtlExpiryInvalidatesLazilyAndViaPurge)
{
    TranspileService service;
    RequestPolicy ttl;
    ttl.cache_ttl_seconds = 0.05;

    // Within the TTL the entry is a normal hit.
    service.submit(ghz(5), shared_montreal(), {}, ttl).get();
    EXPECT_EQ(service.stats().cache_size, 1u);
    TranspileTicket hit = service.submit(ghz(5), shared_montreal(), {}, ttl);
    hit.get();
    EXPECT_EQ(hit.source(), TicketSource::kCacheHit);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));

    // Lazy path: the lookup finds the entry older than the request's
    // TTL, counts an invalidation eviction, and recomputes.
    TranspileTicket t = service.submit(ghz(5), shared_montreal(), {}, ttl);
    t.get();
    EXPECT_EQ(t.source(), TicketSource::kScheduled);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.evictions_invalidated, 1u);

    // A request's TTL binds that request only: with no service default,
    // purge_expired() finds no entry too old to keep.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(service.purge_expired(), 0u);
    EXPECT_EQ(service.stats().cache_size, 1u);

    // Sweep path: purge_expired() drops entries older than
    // default_ttl_seconds without a lookup, and a request that sets no
    // TTL of its own gets the default.
    ServiceOptions sopts;
    sopts.default_ttl_seconds = 0.05;
    TranspileService dservice(sopts);
    dservice.submit(ghz(5), shared_montreal()).get();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(dservice.purge_expired(), 1u);
    stats = dservice.stats();
    EXPECT_EQ(stats.cache_size, 0u);
    EXPECT_EQ(stats.evictions_invalidated, 1u);
    EXPECT_EQ(stats.evictions_capacity, 0u);
    dservice.submit(ghz(5), shared_montreal()).get();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    TranspileTicket lazy = dservice.submit(ghz(5), shared_montreal());
    lazy.get();
    EXPECT_EQ(lazy.source(), TicketSource::kScheduled);
    EXPECT_EQ(dservice.stats().evictions_invalidated, 2u);
}

TEST(TranspileService, TtlBeyondTheClockRangeNeverExpires)
{
    // 1e10 s is past steady_clock's nanosecond range from now; as a
    // maximum age it simply never runs out.
    TranspileService service;
    RequestPolicy ttl;
    ttl.cache_ttl_seconds = 1e10;
    service.submit(ghz(5), shared_montreal(), {}, ttl).get();
    TranspileTicket hit = service.submit(ghz(5), shared_montreal(), {}, ttl);
    hit.get();
    EXPECT_EQ(hit.source(), TicketSource::kCacheHit);
    EXPECT_EQ(service.stats().evictions_invalidated, 0u);

    // Same through the service-wide default.
    ServiceOptions sopts;
    sopts.default_ttl_seconds = 1e10;
    TranspileService dservice(sopts);
    dservice.submit(ghz(5), shared_montreal()).get();
    TranspileTicket dhit = dservice.submit(ghz(5), shared_montreal());
    dhit.get();
    EXPECT_EQ(dhit.source(), TicketSource::kCacheHit);
    EXPECT_EQ(dservice.purge_expired(), 0u);
    EXPECT_EQ(dservice.stats().evictions_invalidated, 0u);
}

TEST(TranspileService, InvalidateBackendDropsByName)
{
    TranspileService service;
    service.submit(ghz(5), shared_montreal()).get();
    service.submit(qft(4), shared_montreal()).get();
    auto grid = std::make_shared<const Backend>(grid_backend());
    service.submit(ghz(5), grid).get();
    EXPECT_EQ(service.stats().cache_size, 3u);

    EXPECT_EQ(service.invalidate_backend("ibmq_montreal"), 2u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache_size, 1u);
    EXPECT_EQ(stats.evictions_invalidated, 2u);
    EXPECT_EQ(service.invalidate_backend("ibmq_montreal"), 0u);

    // The grid entry survived and still hits.
    TranspileTicket t = service.submit(ghz(5), grid);
    t.get();
    EXPECT_EQ(t.source(), TicketSource::kCacheHit);
}

TEST(TranspileService, SubmitQasmSharesKeysWithObjectSubmits)
{
    TranspileService service;
    const QuantumCircuit qc = qft(4);
    const auto backend = shared_montreal();

    EXPECT_EQ(TranspileService::request_key(from_qasm(to_qasm(qc)),
                                            *backend, TranspileOptions{}),
              TranspileService::request_key(qc, *backend,
                                            TranspileOptions{}));

    TranspileTicket object = service.submit(qc, backend);
    object.get();
    TranspileTicket text = service.submit_qasm(to_qasm(qc), backend);
    text.get();
    EXPECT_EQ(text.source(), TicketSource::kCacheHit);
    EXPECT_EQ(object.key(), text.key());
    EXPECT_EQ(text.get_qasm(), to_qasm(object.get()->circuit));

    // Parse errors surface at submit time, before anything enqueues.
    const ServiceStats before = service.stats();
    EXPECT_THROW(service.submit_qasm("OPENQASM 2.0;\nnope;\n", backend),
                 std::runtime_error);
    EXPECT_EQ(service.stats().requests, before.requests);
}

// ------------------------------------------- encode-once cache text

/** to_qasm of an in-process transpile, and the cache cost of its entry
 *  before any text is attached. */
struct Reference
{
    std::string qasm;
    std::size_t entry_bytes = 0;
};

Reference
reference(const QuantumCircuit &qc, const TranspileOptions &opts = {})
{
    ServiceOptions unbounded;
    unbounded.cache_max_bytes = 0;
    TranspileService probe(unbounded);
    Reference ref;
    ref.qasm =
        to_qasm(probe.submit(qc, shared_montreal(), opts).get()->circuit);
    ref.entry_bytes = probe.stats().cache_bytes;
    return ref;
}

TEST(TranspileService, GetQasmChargesTheTextToItsEntryOnce)
{
    const QuantumCircuit qc = qft(5);
    const Reference ref = reference(qc);
    const auto backend = shared_montreal();
    TranspileService service;

    // In-process miss and hit: nothing is encoded or charged.
    service.submit(qc, backend).get();
    TranspileTicket hit = service.submit(qc, backend);
    hit.get();
    EXPECT_EQ(hit.source(), TicketSource::kCacheHit);
    EXPECT_EQ(service.stats().cache_bytes, ref.entry_bytes);

    // First wire hit encodes and attaches; the second reuses the text.
    TranspileTicket first = service.submit_qasm(to_qasm(qc), backend);
    EXPECT_EQ(first.get_qasm(), ref.qasm);
    EXPECT_EQ(service.stats().cache_bytes, ref.entry_bytes + ref.qasm.size());
    TranspileTicket second = service.submit_qasm(to_qasm(qc), backend);
    EXPECT_EQ(second.source(), TicketSource::kCacheHit);
    EXPECT_EQ(second.get_qasm(), ref.qasm);
    EXPECT_EQ(first.get_qasm(), ref.qasm);
    EXPECT_EQ(service.stats().cache_bytes, ref.entry_bytes + ref.qasm.size());

    // An in-process hit on the texted entry leaves the bytes alone too.
    service.submit(qc, backend).get();
    EXPECT_EQ(service.stats().cache_bytes, ref.entry_bytes + ref.qasm.size());

    service.clear_cache();
    EXPECT_EQ(service.stats().cache_bytes, 0u);
    EXPECT_EQ(first.get_qasm(), ref.qasm); // tickets keep their text
}

TEST(TranspileService, AttachedTextStaysWithinTheByteBudget)
{
    const QuantumCircuit a = qft(5), b = ghz(5);
    const Reference ra = reference(a), rb = reference(b);
    const auto backend = shared_montreal();

    // Both bare entries fit; A's text does not fit beside B, so
    // attaching it evicts B (the LRU tail).
    ServiceOptions opts;
    opts.cache_max_bytes =
        ra.entry_bytes + rb.entry_bytes + ra.qasm.size() - 1;
    TranspileService service(opts);
    service.submit(b, backend).get();
    TranspileTicket ta = service.submit(a, backend);
    ta.get();
    EXPECT_EQ(service.stats().cache_size, 2u);
    EXPECT_EQ(ta.get_qasm(), ra.qasm);
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache_size, 1u);
    EXPECT_EQ(stats.cache_bytes, ra.entry_bytes + ra.qasm.size());
    EXPECT_LE(stats.cache_bytes, opts.cache_max_bytes);
    EXPECT_EQ(stats.evictions_capacity, 1u);

    // An entry that fits with its request text but not with its output
    // text is evicted by the attach, and the text is still served.
    ServiceOptions tight;
    tight.cache_max_bytes =
        ra.entry_bytes + to_qasm(a).size() + ra.qasm.size() / 2;
    TranspileService small(tight);
    TranspileTicket t = small.submit_qasm(to_qasm(a), backend);
    t.get();
    EXPECT_EQ(small.stats().cache_size, 1u);
    EXPECT_EQ(t.get_qasm(), ra.qasm);
    stats = small.stats();
    EXPECT_EQ(stats.cache_size, 0u);
    EXPECT_EQ(stats.cache_bytes, 0u);
    EXPECT_EQ(stats.evictions_capacity, 1u);
}

TEST(TranspileService, InvalidationAndTtlDropTheTextWithItsEntry)
{
    const QuantumCircuit qc = qft(5);
    const Reference ref = reference(qc);
    const auto backend = shared_montreal();
    // Every entry here is filled by submit_qasm and keeps its request.
    const std::size_t entry_bytes = ref.entry_bytes + to_qasm(qc).size();
    TranspileService service;

    EXPECT_EQ(service.submit_qasm(to_qasm(qc), backend).get_qasm(), ref.qasm);
    EXPECT_EQ(service.stats().cache_bytes, entry_bytes + ref.qasm.size());
    EXPECT_EQ(service.invalidate_backend("ibmq_montreal"), 1u);
    EXPECT_EQ(service.stats().cache_bytes, 0u);
    // The recompute starts bare and encodes afresh, to the same bytes.
    TranspileTicket again = service.submit_qasm(to_qasm(qc), backend);
    again.get();
    EXPECT_EQ(again.source(), TicketSource::kScheduled);
    EXPECT_EQ(service.stats().cache_bytes, entry_bytes);
    EXPECT_EQ(again.get_qasm(), ref.qasm);
    EXPECT_EQ(service.stats().cache_bytes, entry_bytes + ref.qasm.size());

    // A hit ticket whose entry is dropped before it encodes charges
    // nothing: the text lives only as long as the ticket.
    TranspileTicket orphan = service.submit_qasm(to_qasm(qc), backend);
    EXPECT_EQ(orphan.source(), TicketSource::kCacheHit);
    service.clear_cache();
    EXPECT_EQ(orphan.get_qasm(), ref.qasm);
    EXPECT_EQ(service.stats().cache_bytes, 0u);

    // TTL expiry, on the sweep and on the lazy lookup.
    ServiceOptions ttl;
    ttl.default_ttl_seconds = 0.05;
    TranspileService timed(ttl);
    EXPECT_EQ(timed.submit_qasm(to_qasm(qc), backend).get_qasm(), ref.qasm);
    EXPECT_EQ(timed.stats().cache_bytes, entry_bytes + ref.qasm.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(timed.purge_expired(), 1u);
    EXPECT_EQ(timed.stats().cache_bytes, 0u);

    EXPECT_EQ(timed.submit_qasm(to_qasm(qc), backend).get_qasm(), ref.qasm);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    TranspileTicket lazy = timed.submit_qasm(to_qasm(qc), backend);
    lazy.get();
    EXPECT_EQ(lazy.source(), TicketSource::kScheduled);
    EXPECT_EQ(timed.stats().cache_bytes, entry_bytes);
    EXPECT_EQ(timed.stats().evictions_invalidated, 2u);
}

TEST(TranspileService, CoalescedWaitersShareOneEncode)
{
    // Owner and coalesced waiter of one queued computation both read
    // the text; it is charged to the entry once.
    const QuantumCircuit qc = qft(5);
    const Reference ref = reference(qc);
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);
    PinnedWorker plug(*sopts.scheduler);
    ASSERT_TRUE(spin_until([&] { return plug.pinned(); }));

    const auto backend = shared_montreal();
    TranspileTicket owner = service.submit_qasm(to_qasm(qc), backend);
    TranspileTicket joined = service.submit_qasm(to_qasm(qc), backend);
    ASSERT_EQ(joined.source(), TicketSource::kCoalesced);
    std::string owner_text, joined_text;
    std::thread reader([&] { joined_text = joined.get_qasm(); });
    plug.release();
    owner_text = owner.get_qasm();
    reader.join();
    EXPECT_EQ(owner_text, ref.qasm);
    EXPECT_EQ(joined_text, ref.qasm);
    EXPECT_EQ(service.stats().cache_bytes,
              ref.entry_bytes + to_qasm(qc).size() + ref.qasm.size());
}

TEST(TranspileService, TryCancelAbandonsQueuedRequests)
{
    // A 1-worker scheduler whose worker is pinned: the submitted
    // request stays unclaimed, so try_cancel must succeed and the
    // ticket must throw TranspileCancelled.
    auto sched = std::make_shared<Scheduler>(1);
    PinnedWorker hostage(*sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    ServiceOptions opts;
    opts.scheduler = sched;
    TranspileService service(opts);

    TranspileTicket queued = service.submit(ghz(5), shared_montreal());
    EXPECT_EQ(queued.source(), TicketSource::kScheduled);
    EXPECT_TRUE(service.try_cancel(queued));
    EXPECT_THROW(queued.get(), TranspileCancelled);
    EXPECT_EQ(service.stats().cancelled, 1u);
    EXPECT_EQ(service.stats().transpiles_ok, 0u);

    // Second cancel of the same ticket: the request is gone.
    EXPECT_FALSE(service.try_cancel(queued));

    // A request someone coalesced onto is NOT cancellable.
    TranspileTicket owner = service.submit(qft(4), shared_montreal());
    TranspileTicket twin = service.submit(qft(4), shared_montreal());
    EXPECT_EQ(twin.source(), TicketSource::kCoalesced);
    EXPECT_FALSE(service.try_cancel(owner));
    EXPECT_FALSE(service.try_cancel(twin)); // only owners cancel

    hostage.release();
    EXPECT_FALSE(owner.get()->circuit.empty()); // it ran normally
    EXPECT_EQ(service.stats().cancelled, 1u);

    // A completed request is not cancellable either.
    EXPECT_FALSE(service.try_cancel(owner));
}

TEST(TranspileService, CancelledKeyCanBeResubmitted)
{
    auto sched = std::make_shared<Scheduler>(1);
    PinnedWorker hostage(*sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    ServiceOptions opts;
    opts.scheduler = sched;
    TranspileService service(opts);
    TranspileTicket first = service.submit(ghz(4), shared_montreal());
    ASSERT_TRUE(service.try_cancel(first));
    hostage.release();

    // The key is free again: a fresh submit computes a result.
    TranspileTicket second = service.submit(ghz(4), shared_montreal());
    EXPECT_EQ(second.source(), TicketSource::kScheduled);
    EXPECT_FALSE(second.get()->circuit.empty());
}

} // namespace
} // namespace nassc