// Sharded-serving tests (serve/shard_router.h):
//
//  (a) HashRing — consistent-hash stability (adding a shard remaps
//      only the keys the new shard now owns; removing one remaps only
//      its keys) and the live-walk used for failover;
//  (b) fleet end-to-end — a front-door NasscServer forwarding to three
//      in-process worker servers: responses BIT-IDENTICAL to a local
//      transpile, the dedup invariant fleet-wide (transpiles ==
//      distinct keys summed across shards, exercised on Table I
//      circuits), and the front's merged `metrics` scrape read
//      through the client-side `stats` view;
//  (c) failover — a stopped shard's keys transparently re-route to a
//      live shard; a HUNG shard (armed sleep failpoint) trips the
//      router's I/O timeout and fails over the same way;
//  (d) hung-peer protection on the plain client —
//      ServeClient::set_io_timeout surfaces a wedged server as the
//      typed TranspileTransportTimeout.

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/serve/client.h"
#include "nassc/serve/protocol.h"
#include "nassc/serve/server.h"
#include "nassc/serve/shard_router.h"
#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"
#include "nassc/service/transpile_service.h"
#include "nassc/transpile/context.h"

namespace nassc {
namespace {

std::string
socket_path(const std::string &suffix)
{
    return "/tmp/nassc_shard_" + std::to_string(::getpid()) + "_" + suffix +
           ".sock";
}

// ------------------------------------------------------------ HashRing

TEST(HashRing, OwnersAreStableAndBalanced)
{
    const HashRing ring(3);
    std::vector<int> owned(3, 0);
    for (int i = 0; i < 1000; ++i) {
        const int owner =
            ring.owner(HashRing::key_point("key-" + std::to_string(i)));
        ASSERT_GE(owner, 0);
        ASSERT_LT(owner, 3);
        ++owned[static_cast<std::size_t>(owner)];
        // Determinism: the same key always lands on the same shard.
        EXPECT_EQ(owner, ring.owner(HashRing::key_point(
                             "key-" + std::to_string(i))));
    }
    // 64 virtual nodes per shard keep slices coarse-balanced: no shard
    // may own less than a tenth of a fair share.
    for (int s = 0; s < 3; ++s)
        EXPECT_GT(owned[static_cast<std::size_t>(s)], 1000 / 30);
}

TEST(HashRing, AddingAShardRemapsOnlyItsOwnKeys)
{
    const HashRing three(3);
    const HashRing four(4);
    int remapped = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t point =
            HashRing::key_point("key-" + std::to_string(i));
        const int before = three.owner(point);
        const int after = four.owner(point);
        if (before != after) {
            // The ONLY legal move is onto the new shard: shard 0-2's
            // ring points are unchanged by construction, so no key may
            // hop between surviving shards.
            EXPECT_EQ(after, 3);
            ++remapped;
        }
    }
    // Roughly 1/4 of the keyspace should move — and certainly not none
    // (the new shard must take real work) nor half (that would be a
    // rehash-everything bug).
    EXPECT_GT(remapped, 2000 / 10);
    EXPECT_LT(remapped, 2000 / 2);
}

TEST(HashRing, LiveWalkSkipsDeadShardsAndRecovers)
{
    const HashRing ring(3);
    const auto all_live = [](int) { return true; };
    const auto one_dead = [](int shard) { return shard != 1; };
    const auto all_dead = [](int) { return false; };
    int moved = 0;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t point =
            HashRing::key_point("key-" + std::to_string(i));
        const int healthy = ring.owner_live(point, all_live);
        EXPECT_EQ(healthy, ring.owner(point));
        const int degraded = ring.owner_live(point, one_dead);
        ASSERT_NE(degraded, 1);
        if (healthy == 1) {
            ++moved; // shard 1's keys must land on a SURVIVOR
        } else {
            // Keys shard 1 never owned do not move at all.
            EXPECT_EQ(degraded, healthy);
        }
        EXPECT_EQ(ring.owner_live(point, all_dead), -1);
    }
    EXPECT_GT(moved, 0);
}

// ---------------------------------------------------- fleet end-to-end

/** A worker fleet + front door, all in-process.  The front's
 *  NasscServer forwards via a ShardRouter exactly as `nasscd --shards`
 *  does; workers are plain NasscServers on their own unix sockets. */
struct Fleet
{
    static constexpr int kShards = 3;
    std::vector<std::unique_ptr<NasscServer>> workers;
    std::shared_ptr<ShardRouter> router;
    std::unique_ptr<NasscServer> front;
    std::string front_path;

    explicit Fleet(int io_timeout_ms = 10000)
    {
        ShardRouterOptions ropts;
        for (int s = 0; s < kShards; ++s) {
            ServerOptions wopts;
            wopts.unix_path = socket_path("w" + std::to_string(s));
            workers.push_back(std::make_unique<NasscServer>(wopts));
            workers.back()->start();
            ServeEndpoint endpoint;
            endpoint.unix_path = workers.back()->unix_path();
            ropts.shards.push_back(endpoint);
        }
        ropts.io_timeout_ms = io_timeout_ms;
        ropts.failover_backoff_ms = 5;
        router = std::make_shared<ShardRouter>(std::move(ropts));

        ServerOptions fopts;
        front_path = socket_path("front");
        fopts.unix_path = front_path;
        fopts.shard_router = router;
        front = std::make_unique<NasscServer>(fopts);
        front->start();
    }

    ~Fleet()
    {
        front->stop();
        router->close_pools();
        for (auto &worker : workers)
            worker->stop();
    }

    /** Which shard owns this job, exactly as the front computes it. */
    int
    owner(const std::string &qasm,
          const std::vector<std::pair<std::string, std::string>> &options)
        const
    {
        const std::string key = TranspileService::request_key(
            from_qasm(qasm), montreal_backend(),
            parse_transpile_options(options));
        return router->ring().owner(HashRing::key_point(key));
    }
};

/** Small Table I circuits (circuits/library.h) — big enough to route,
 *  small enough for a unit test, and QASM-exportable as-is (the grover
 *  entries carry mcx gates the codec refuses to emit undecomposed). */
std::vector<std::pair<std::string, std::string>>
table_menu()
{
    std::vector<std::pair<std::string, std::string>> menu;
    for (const char *name : {"vqe_n8", "qpe_n9", "adder_n10", "qft_n15"})
        menu.emplace_back(name, to_qasm(benchmark_by_name(name)));
    return menu;
}

TEST(ShardRouter, FleetBitIdenticalWithFleetWideDedup)
{
    Fleet fleet;
    ServeClient client = ServeClient::connect_unix(fleet.front_path);

    struct Job
    {
        std::string key;
        std::string qasm;
        std::vector<std::pair<std::string, std::string>> options;
    };
    std::vector<Job> jobs;
    for (const auto &entry : table_menu()) {
        for (const char *router_name : {"nassc", "sabre"}) {
            Job job;
            job.key = entry.first + "/" + router_name;
            job.qasm = entry.second;
            job.options = {{"router", router_name}, {"seed", "7"}};
            jobs.push_back(job);
            jobs.push_back(job); // duplicate — must dedup fleet-wide
        }
    }
    const std::size_t distinct = jobs.size() / 2;

    std::map<std::string, std::string> expected;
    std::set<int> owners;
    for (const Job &job : jobs) {
        if (expected.count(job.key))
            continue;
        const TranspileResult local = TranspileContext::global().transpile(
            from_qasm(job.qasm), montreal_backend(),
            parse_transpile_options(job.options));
        expected[job.key] = to_qasm(local.circuit);
        owners.insert(fleet.owner(job.qasm, job.options));
    }
    // The menu must actually spread over shards for the test to mean
    // anything; 8 distinct keys over 3 shards make a single-owner
    // degenerate draw astronomically unlikely.
    EXPECT_GT(owners.size(), 1u);

    for (const Job &job : jobs) {
        const ServeResponse resp =
            client.transpile_qasm(job.qasm, "ibmq_montreal", job.options);
        EXPECT_EQ(resp.qasm, expected[job.key]) << job.key;
    }

    // Fleet-wide dedup: summed across shards, each distinct key was
    // transpiled exactly once; every duplicate rode a cache/coalesce.
    std::uint64_t transpiles = 0;
    std::uint64_t requests = 0;
    for (auto &worker : fleet.workers) {
        const ServiceStats s = worker->service().stats();
        transpiles += s.transpiles_ok + s.transpiles_failed;
        requests += s.requests;
    }
    EXPECT_EQ(transpiles, distinct);
    EXPECT_EQ(requests, jobs.size());

    // The stats view of the front's merged `metrics` scrape reports the
    // same sums plus the router's own health rows.
    std::map<std::string, std::uint64_t> merged = client.stats();
    EXPECT_EQ(merged.at("transpiles_ok"), distinct);
    EXPECT_EQ(merged.at("requests"), jobs.size());
    EXPECT_EQ(merged.at("shards"), static_cast<std::uint64_t>(3));
    EXPECT_EQ(merged.at("shards_live"), static_cast<std::uint64_t>(3));
    EXPECT_EQ(merged.at("forwards"), jobs.size() + 0u);
    EXPECT_EQ(merged.at("failovers"), 0u);
}

TEST(ShardRouter, FailoverReroutesADeadShardsKeys)
{
    Fleet fleet;
    ServeClient client = ServeClient::connect_unix(fleet.front_path);

    // Scan seeds until we hold a key owned by shard 1 (each draw is
    // ~1/3; 64 draws cannot all miss in practice).
    const std::string qasm = to_qasm(ghz(6));
    std::vector<std::pair<std::string, std::string>> options;
    for (int seed = 0; seed < 64; ++seed) {
        options = {{"router", "sabre"},
                   {"seed", std::to_string(seed)}};
        if (fleet.owner(qasm, options) == 1)
            break;
    }
    ASSERT_EQ(fleet.owner(qasm, options), 1);

    const TranspileResult local = TranspileContext::global().transpile(
        from_qasm(qasm), montreal_backend(),
        parse_transpile_options(options));
    const std::string expected = to_qasm(local.circuit);

    // Healthy forward lands on shard 1.
    EXPECT_EQ(client.transpile_qasm(qasm, "ibmq_montreal", options).qasm,
              expected);
    EXPECT_EQ(fleet.workers[1]->service().stats().requests, 1u);

    // Kill shard 1 the hard way (stop() closes its listener and
    // connections) and replay: the front must fail over to a live
    // shard and still answer bit-identically — safe because the
    // transpile is deterministic.
    fleet.workers[1]->stop();
    const ServeResponse failed_over =
        client.transpile_qasm(qasm, "ibmq_montreal", options);
    EXPECT_EQ(failed_over.qasm, expected);
    EXPECT_FALSE(fleet.router->is_live(1));
    EXPECT_GE(fleet.router->stats_snapshot().failovers, 1u);

    // The other shards picked up the arc: one of them transpiled it.
    const std::uint64_t others =
        fleet.workers[0]->service().stats().requests +
        fleet.workers[2]->service().stats().requests;
    EXPECT_GE(others, 1u);
}

TEST(ShardRouter, HungShardTripsTimeoutAndFailsOver)
{
    // Short router I/O timeout; the armed sleep is far longer, so the
    // forward MUST time out rather than wait the sleep out.
    Fleet fleet(/*io_timeout_ms=*/500);
    ServeClient client = ServeClient::connect_unix(fleet.front_path);

    const std::string qasm = to_qasm(ghz(4));
    const std::vector<std::pair<std::string, std::string>> options = {
        {"router", "sabre"}, {"seed", "11"}};

    const TranspileResult local = TranspileContext::global().transpile(
        from_qasm(qasm), montreal_backend(),
        parse_transpile_options(options));

    // The failpoint registry is process-global, so whichever worker
    // receives the first transpile burns the single sleep charge and
    // wedges for 3 s; the failover retry runs clean.
    failpoint::ScopedFailpoint hang("service.transpile", "1*sleep(3000)");
    const ServeResponse resp =
        client.transpile_qasm(qasm, "ibmq_montreal", options);
    EXPECT_EQ(resp.qasm, to_qasm(local.circuit));
    EXPECT_GE(fleet.router->stats_snapshot().failovers, 1u);
    EXPECT_EQ(failpoint::hit_count("service.transpile"), 1u);
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

} // namespace
} // namespace nassc
