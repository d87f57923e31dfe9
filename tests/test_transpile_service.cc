// Tests for the async TranspileService (service/transpile_service.h):
//
//  (a) results are bit-identical to a direct transpile() call — across
//      1/2/8 scheduler workers, both routers, cache on and off, and
//      cold vs. warm cache (RoutingStats + circuit fingerprint + both
//      layouts);
//  (b) in-flight duplicates coalesce to ONE transpile, pinned
//      deterministically by pinning the only worker first;
//  (c) the LRU result cache is bounded, evicts least-recently-USED, and
//      its hit/miss/eviction/coalesce stats add up;
//  (d) failures propagate to every waiter and are never cached;
//  (e) concurrent mixed-workload clients: every key transpiles exactly
//      once, every client sees the right result;
//  (f) the per-object backend key memo: a live object is hashed once,
//      equal-content objects share entries, a rotated object is never
//      mistaken for the destroyed one whose address it reuses, and
//      invalidate_backend() makes the next request hash afresh;
//  (g) the key hashes output identity only: requests that differ in
//      RequestPolicy or an execution knob share one entry, and each
//      request's TTL is a maximum age checked at its own lookup;
//  (h) submit_qasm's text probe is invisible: one script through
//      submit_qasm and through submit(from_qasm(text)) gives the same
//      tickets, bytes and stats, apart from the text hits and the
//      request texts the entries keep;
//  (i) the SynthMemo pool: a warmed pool, concurrent leases and a
//      transpile that throws all leave every output byte-equal to a
//      fresh free transpile(), and the pool stays within the peak
//      number of concurrent transpiles.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"
#include "nassc/service/scheduler.h"
#include "nassc/service/transpile_service.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"
#include "pinned_worker.h"

namespace nassc {
namespace {

/** Spin until `pred` or ~5 s; returns whether pred came true. */
template <typename Pred>
bool
spin_until(Pred pred)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** Full bit-identity check between two transpile results. */
void
expect_identical(const TranspileResult &a, const TranspileResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.circuit.fingerprint(), b.circuit.fingerprint()) << what;
    EXPECT_EQ(a.initial_l2p, b.initial_l2p) << what;
    EXPECT_EQ(a.final_l2p, b.final_l2p) << what;
    EXPECT_EQ(a.routing_stats.num_swaps, b.routing_stats.num_swaps) << what;
    EXPECT_EQ(a.routing_stats.flagged_swaps, b.routing_stats.flagged_swaps)
        << what;
    EXPECT_EQ(a.routing_stats.c2q_hits, b.routing_stats.c2q_hits) << what;
    EXPECT_EQ(a.cx_total, b.cx_total) << what;
    EXPECT_EQ(a.depth, b.depth) << what;
}

std::shared_ptr<const Backend>
shared_montreal()
{
    static auto backend =
        std::make_shared<const Backend>(montreal_backend());
    return backend;
}

TEST(TranspileService, MatchesDirectTranspileAcrossWorkersAndCacheModes)
{
    auto backend = shared_montreal();
    struct Case
    {
        std::string name;
        QuantumCircuit circuit;
        RoutingAlgorithm router;
    };
    std::vector<Case> cases = {
        {"qft5/nassc", qft(5), RoutingAlgorithm::kNassc},
        {"ghz6/sabre", ghz(6), RoutingAlgorithm::kSabre},
        {"bv6/nassc", bernstein_vazirani(6, 0x15), RoutingAlgorithm::kNassc},
    };

    // Reference: plain synchronous transpile(), private distance cache.
    std::vector<TranspileResult> want;
    for (const Case &c : cases) {
        TranspileOptions opts;
        opts.router = c.router;
        opts.seed = 11;
        DistanceCache dist;
        want.push_back(transpile(c.circuit, *backend, opts, dist));
    }

    for (int workers : {1, 2, 8}) {
        for (std::size_t capacity : {std::size_t{0}, std::size_t{64}}) {
            ServiceOptions sopts;
            sopts.cache_capacity = capacity;
            sopts.scheduler = std::make_shared<Scheduler>(workers);
            TranspileService service(sopts);

            // Two rounds: round 1 is cold, round 2 warm (or coalesced /
            // recomputed when the cache is off) — always bit-identical.
            for (int round = 0; round < 2; ++round) {
                std::vector<TranspileTicket> tickets;
                for (const Case &c : cases) {
                    TranspileOptions opts;
                    opts.router = c.router;
                    opts.seed = 11;
                    tickets.push_back(
                        service.submit(c.circuit, backend, opts));
                }
                for (std::size_t i = 0; i < cases.size(); ++i) {
                    SharedTranspileResult got = tickets[i].get();
                    expect_identical(
                        *got, want[i],
                        cases[i].name + " workers=" +
                            std::to_string(workers) + " cap=" +
                            std::to_string(capacity) + " round=" +
                            std::to_string(round));
                }
            }
            const ServiceStats stats = service.stats();
            EXPECT_EQ(stats.requests, 2 * cases.size());
            if (capacity > 0) {
                EXPECT_EQ(stats.cache_hits, cases.size());
                EXPECT_EQ(stats.transpiles_ok, cases.size());
            }
            EXPECT_EQ(stats.inflight, 0u);
        }
    }
}

TEST(TranspileService, InflightDuplicatesCoalesceToOneTranspile)
{
    // Pin the scheduler's only worker so nothing can start: every
    // duplicate submitted behind the first MUST coalesce — the count is
    // deterministic, not a race we happened to win.
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);

    PinnedWorker plug(*sopts.scheduler);
    ASSERT_TRUE(spin_until([&] { return plug.pinned(); }));

    auto backend = shared_montreal();
    const QuantumCircuit circuit = ghz(5);
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;

    constexpr int kDuplicates = 6;
    std::vector<TranspileTicket> tickets;
    for (int i = 0; i < kDuplicates; ++i)
        tickets.push_back(service.submit(circuit, backend, opts));

    EXPECT_EQ(tickets[0].source(), TicketSource::kScheduled);
    for (int i = 1; i < kDuplicates; ++i)
        EXPECT_EQ(tickets[i].source(), TicketSource::kCoalesced);
    {
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kDuplicates));
        EXPECT_EQ(stats.misses, 1u);
        EXPECT_EQ(stats.coalesced,
                  static_cast<std::uint64_t>(kDuplicates - 1));
        EXPECT_EQ(stats.inflight, 1u);
        EXPECT_EQ(stats.transpiles_ok, 0u); // still pinned
    }

    plug.release();
    SharedTranspileResult first = tickets[0].get();
    for (int i = 1; i < kDuplicates; ++i)
        EXPECT_EQ(tickets[i].get().get(), first.get())
            << "coalesced ticket " << i << " must share the one result";
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.transpiles_ok, 1u);
    EXPECT_EQ(stats.inflight, 0u);
    // And the one result is bit-identical to a fresh direct run.
    DistanceCache dist;
    expect_identical(*first, transpile(circuit, *shared_montreal(), opts, dist),
                     "coalesced vs direct");
}

TEST(TranspileService, LruEvictionIsBoundedAndRecencyOrdered)
{
    ServiceOptions sopts;
    sopts.cache_capacity = 2;
    sopts.scheduler = std::make_shared<Scheduler>(2);
    TranspileService service(sopts);

    auto backend = shared_montreal();
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;
    const QuantumCircuit a = ghz(4), b = ghz(5), c = ghz(6), d = qft(4);

    auto source_of = [&](const QuantumCircuit &qc) {
        TranspileTicket t = service.submit(qc, backend, opts);
        t.get();
        return t.source();
    };

    EXPECT_EQ(source_of(a), TicketSource::kScheduled); // cache: [A]
    EXPECT_EQ(source_of(b), TicketSource::kScheduled); // cache: [B A]
    EXPECT_EQ(service.stats().evictions_capacity, 0u);
    EXPECT_EQ(source_of(c), TicketSource::kScheduled); // evicts A: [C B]
    EXPECT_EQ(service.stats().evictions_capacity, 1u);
    EXPECT_EQ(service.stats().cache_size, 2u);         // bounded
    EXPECT_EQ(source_of(a), TicketSource::kScheduled); // evicts B: [A C]
    EXPECT_EQ(source_of(c), TicketSource::kCacheHit);  // touch C: [C A]
    EXPECT_EQ(source_of(d), TicketSource::kScheduled); // evicts A: [D C]
    EXPECT_EQ(source_of(c), TicketSource::kCacheHit);  // C survived (recency)
    EXPECT_EQ(source_of(a), TicketSource::kScheduled); // evicts D: [A C]

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache_size, 2u);
    EXPECT_EQ(stats.evictions_capacity, 4u);
    EXPECT_EQ(stats.evictions_invalidated, 0u);
    EXPECT_EQ(stats.cache_hits, 2u);
    EXPECT_EQ(stats.transpiles_ok, 6u);

    service.clear_cache();
    EXPECT_EQ(service.stats().cache_size, 0u);
}

TEST(TranspileService, FailuresPropagateAndAreNeverCached)
{
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(2);
    TranspileService service(sopts);

    auto backend = shared_montreal();
    const QuantumCircuit too_wide = ghz(40); // montreal has 27 qubits

    for (int round = 0; round < 2; ++round) {
        TranspileTicket t = service.submit(too_wide, backend, {});
        EXPECT_EQ(t.source(), TicketSource::kScheduled)
            << "failures must not populate the cache (round " << round
            << ")";
        EXPECT_THROW(t.get(), std::exception);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.transpiles_failed, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.cache_size, 0u);
    EXPECT_EQ(stats.inflight, 0u);

    EXPECT_THROW(service.submit(too_wide, nullptr, {}),
                 std::invalid_argument);
}

TEST(TranspileService, AThrowAtTheClaimStillRunsTheRequest)
{
    // A fault armed at scheduler.claim must not lose the claimed
    // request: its ticket settles and nothing stays in flight.
    failpoint::disarm_all();
    failpoint::ScopedFailpoint fault("scheduler.claim",
                                     "1*throw(claim fault)");
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    auto service = std::make_unique<TranspileService>(sopts);
    TranspileTicket t = service->submit(ghz(3), shared_montreal(), {});
    const bool settled = t.wait_for(std::chrono::seconds(10));
    EXPECT_TRUE(settled);
    if (!settled) {
        // A lost request would block ~TranspileService forever; leak
        // the service so the test fails instead of hanging.
        (void)service.release();
        return;
    }
    EXPECT_NO_THROW(t.get());
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.transpiles_ok, 1u);
    EXPECT_EQ(stats.transpiles_failed, 0u);
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 1u);
    failpoint::disarm_all();
}

TEST(TranspileService, RequestKeySeparatesEveryComponent)
{
    const Backend montreal = montreal_backend();
    const Backend grid = grid_backend(5, 5);
    const QuantumCircuit qc = ghz(5);
    TranspileOptions opts;

    const std::string base = TranspileService::request_key(qc, montreal, opts);
    EXPECT_EQ(TranspileService::request_key(ghz(5), montreal, opts), base);
    EXPECT_NE(TranspileService::request_key(ghz(6), montreal, opts), base);
    EXPECT_NE(TranspileService::request_key(qc, grid, opts), base);
    TranspileOptions other;
    other.seed = 3;
    EXPECT_NE(TranspileService::request_key(qc, montreal, other), base);
}

TEST(TranspileService, ConcurrentMixedClientsTranspileEachKeyOnce)
{
    ServiceOptions sopts;
    sopts.cache_capacity = 64;
    sopts.scheduler = std::make_shared<Scheduler>(4);
    TranspileService service(sopts);
    auto backend = shared_montreal();

    std::vector<QuantumCircuit> menu = {qft(5), ghz(6), vqe_linear(6),
                                        bernstein_vazirani(6, 0x2a)};
    // References computed up front, single-threaded.
    std::vector<TranspileResult> want;
    for (const QuantumCircuit &qc : menu) {
        TranspileOptions opts;
        opts.router = RoutingAlgorithm::kSabre;
        DistanceCache dist;
        want.push_back(transpile(qc, *backend, opts, dist));
    }

    constexpr int kClients = 4, kRequests = 12;
    std::atomic<int> mismatches{0};
    auto client = [&](int id) {
        for (int r = 0; r < kRequests; ++r) {
            const std::size_t pick =
                static_cast<std::size_t>(id + r) % menu.size();
            TranspileOptions opts;
            opts.router = RoutingAlgorithm::kSabre;
            SharedTranspileResult got =
                service.submit(menu[pick], backend, opts).get();
            if (got->circuit.fingerprint() !=
                    want[pick].circuit.fingerprint() ||
                got->routing_stats.num_swaps !=
                    want[pick].routing_stats.num_swaps)
                mismatches.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back(client, t);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kClients * kRequests));
    // Dedup guarantee: with capacity above the key count, each distinct
    // key is computed exactly once no matter the interleaving.
    EXPECT_EQ(stats.transpiles_ok, menu.size());
    EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.misses,
              stats.requests);
    EXPECT_EQ(stats.inflight, 0u);
}

TEST(TranspileService, DeadlineDegradesToBestCompletedTrialWithinBudget)
{
    // Deterministic, no sleep race: a failpoint makes the FIRST layout
    // trial overshoot the deadline by construction (sleep 1500 ms vs a
    // 1000 ms budget), so later trials are skipped at their boundary
    // poll no matter how threads are scheduled.  The request runs as a
    // task, so its trials stay sequential on that one worker.
    failpoint::disarm_all();
    failpoint::ScopedFailpoint slow("layout.trial", "1*sleep(1500)");

    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);
    auto backend = shared_montreal();
    const QuantumCircuit circuit = ghz(5);
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;
    opts.layout_trials = 4;
    RequestPolicy policy;
    policy.deadline_ms = 1000;

    const auto t0 = std::chrono::steady_clock::now();
    TranspileTicket ticket = service.submit(circuit, backend, opts, policy);
    SharedTranspileResult got = ticket.get();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);

    // Degraded but real: at least the slept trial completed, not all
    // four did, and the request settled within 2x its deadline.
    EXPECT_TRUE(got->degraded);
    EXPECT_GE(got->layout_trials_consumed, 1);
    EXPECT_LT(got->layout_trials_consumed, 4);
    EXPECT_LT(elapsed.count(), 2000);

    // Degraded results are NEVER cached: the resubmit computes afresh
    // (the failpoint has burned out, so it now finishes undegraded and
    // DOES enter the cache).
    TranspileTicket again = service.submit(circuit, backend, opts, policy);
    EXPECT_EQ(again.source(), TicketSource::kScheduled);
    SharedTranspileResult full = again.get();
    EXPECT_FALSE(full->degraded);
    EXPECT_EQ(full->layout_trials_consumed, 4);
    TranspileTicket third = service.submit(circuit, backend, opts, policy);
    EXPECT_EQ(third.source(), TicketSource::kCacheHit);
    third.get();
}

TEST(TranspileService, DeadlineWithNothingCompletedThrowsTyped)
{
    // The pre-transpile sleep burns the whole budget before trial 0 can
    // start, so there is no completed trial to degrade to: the request
    // must settle with the TYPED deadline error, counted separately
    // from transpile failures.
    failpoint::disarm_all();
    failpoint::ScopedFailpoint stall("service.transpile", "1*sleep(1500)");

    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);
    auto backend = shared_montreal();
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;
    opts.layout_trials = 1;
    RequestPolicy policy;
    policy.deadline_ms = 1000;

    const auto t0 = std::chrono::steady_clock::now();
    TranspileTicket ticket = service.submit(ghz(5), backend, opts, policy);
    EXPECT_THROW(ticket.get(), TranspileDeadlineExceeded);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    EXPECT_LT(elapsed.count(), 2000);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deadline_exceeded, 1u);
    EXPECT_EQ(stats.transpiles_failed, 0u); // not an error, a deadline
    EXPECT_EQ(stats.cache_size, 0u);
}

TEST(TranspileService, QueuedRequestBudgetCountsQueueWaitAndReachesTrials)
{
    // The budget is stamped at submit and handed to the layout search
    // when a worker claims the request, so time spent queued behind a pinned
    // worker counts against it: the layout search finds it expired
    // although the transpile itself started well inside 300 ms.
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);

    PinnedWorker plug(*sopts.scheduler);
    ASSERT_TRUE(spin_until([&] { return plug.pinned(); }));

    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;
    opts.layout_trials = 4;
    RequestPolicy policy;
    policy.deadline_ms = 300;
    TranspileTicket ticket =
        service.submit(ghz(5), shared_montreal(), opts, policy);
    EXPECT_EQ(ticket.source(), TicketSource::kScheduled);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    plug.release();

    EXPECT_THROW(ticket.get(), TranspileDeadlineExceeded);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deadline_exceeded, 1u);
    EXPECT_EQ(stats.transpiles_failed, 0u);
}

TEST(TranspileService, CoalescedWaiterDeadlineIsPerWaiter)
{
    // One in-flight computation, two waiters: A has no deadline, B has
    // a short one.  B must settle deadline_exceeded without cancelling
    // the computation, and A still gets the (cached) result.  The
    // worker is pinned so B's timeout fires deterministically while the
    // job is still queued.
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.cache_capacity = 8;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);

    PinnedWorker plug(*sopts.scheduler);
    ASSERT_TRUE(spin_until([&] { return plug.pinned(); }));

    auto backend = shared_montreal();
    const QuantumCircuit circuit = ghz(5);
    TranspileOptions sabre;
    sabre.router = RoutingAlgorithm::kSabre;
    RequestPolicy short_deadline;
    short_deadline.deadline_ms = 300;

    TranspileTicket a = service.submit(circuit, backend, sabre);
    TranspileTicket b = service.submit(circuit, backend, sabre, short_deadline);
    EXPECT_EQ(a.source(), TicketSource::kScheduled);
    // A deadline is policy, not identity: B coalesces onto A's key.
    ASSERT_EQ(b.source(), TicketSource::kCoalesced);

    EXPECT_THROW(b.get(), TranspileDeadlineExceeded);
    // B's bounded wait ends at its deadline; A's keeps waiting.
    EXPECT_TRUE(b.wait_for(std::chrono::seconds(10)));
    EXPECT_FALSE(a.wait_for(std::chrono::milliseconds(1)));

    plug.release();
    SharedTranspileResult result = a.get(); // unaffected by B's timeout
    EXPECT_FALSE(result->degraded);
    // ... and the computation B abandoned still populated the cache.
    TranspileTicket warm = service.submit(circuit, backend, sabre);
    EXPECT_EQ(warm.source(), TicketSource::kCacheHit);
    warm.get();
}

TEST(TranspileService, QueueCapShedsFreshMissesButNeverDuplicates)
{
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.max_queued = 2;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);

    PinnedWorker plug(*sopts.scheduler);
    ASSERT_TRUE(spin_until([&] { return plug.pinned(); }));

    auto backend = shared_montreal();
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;

    TranspileTicket first = service.submit(ghz(4), backend, opts);
    TranspileTicket second = service.submit(ghz(5), backend, opts);
    // Third DISTINCT request: past the cap, shed immediately.
    EXPECT_THROW(service.submit(ghz(6), backend, opts), TranspileOverloaded);
    EXPECT_EQ(service.stats().shed, 1u);
    // A DUPLICATE of a queued request coalesces — riding an existing
    // computation adds no queue pressure, so it is never shed.
    TranspileTicket dup = service.submit(ghz(4), backend, opts);
    EXPECT_EQ(dup.source(), TicketSource::kCoalesced);

    plug.release();
    first.get();
    second.get();
    dup.get();
    // Queue drained: fresh misses are admitted again.
    TranspileTicket third = service.submit(ghz(6), backend, opts);
    third.get();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.transpiles_ok, 3u);
}

TEST(TranspileService, RequestsDifferingOnlyInPolicyOrKnobsShareOneEntry)
{
    // Policy (priority, deadline, TTL) and the execution knobs that
    // cannot change the output meet the first request's cache entry.
    failpoint::disarm_all();
    TranspileService service;
    auto backend = shared_montreal();
    const QuantumCircuit circuit = ghz(5);
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;
    const SharedTranspileResult first =
        service.submit(circuit, backend, opts).get();

    RequestPolicy policy;
    policy.priority = 9;
    policy.deadline_ms = 60000;
    policy.cache_ttl_seconds = 3600.0;
    TranspileOptions knobs = opts;
    knobs.layout_threads = 2;
    knobs.reuse_routing = false;
    knobs.sparse_distance_threshold = 0;
    knobs.distance_row_budget_bytes = 1 << 20;
    TranspileTicket hit = service.submit(circuit, backend, knobs, policy);
    EXPECT_EQ(hit.key(), TranspileService::request_key(circuit, *backend,
                                                       opts));
    EXPECT_EQ(hit.source(), TicketSource::kCacheHit);
    // The very entry: a hit's accounting fields describe the
    // computation that filled it.
    EXPECT_EQ(hit.get(), first);
    EXPECT_EQ(service.stats().misses, 1u);
}

TEST(TranspileService, TtlIsAMaximumAgeCheckedPerRequest)
{
    // One entry, two requests of different TTL: a request accepts the
    // entry while it is younger than its own TTL and misses once the
    // entry is older.
    TranspileService service;
    auto backend = shared_montreal();
    service.submit(ghz(5), backend).get();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));

    RequestPolicy patient;
    patient.cache_ttl_seconds = 3600.0;
    TranspileTicket young = service.submit(ghz(5), backend, {}, patient);
    EXPECT_EQ(young.source(), TicketSource::kCacheHit);
    young.get();

    RequestPolicy strict;
    strict.cache_ttl_seconds = 0.05;
    TranspileTicket old = service.submit(ghz(5), backend, {}, strict);
    EXPECT_EQ(old.source(), TicketSource::kScheduled);
    old.get();
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.evictions_invalidated, 1u);

    // The recompute refilled the entry, so even the strict request now
    // hits it.
    TranspileTicket fresh = service.submit(ghz(5), backend, {}, strict);
    EXPECT_EQ(fresh.source(), TicketSource::kCacheHit);
    fresh.get();
}

TEST(TranspileService, CacheInsertFailpointSuppressesAdmission)
{
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.cache_capacity = 8;
    sopts.scheduler = std::make_shared<Scheduler>(2);
    TranspileService service(sopts);
    auto backend = shared_montreal();
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;

    {
        failpoint::ScopedFailpoint lossy("service.cache_insert", "trigger");
        service.submit(ghz(5), backend, opts).get();
        TranspileTicket again = service.submit(ghz(5), backend, opts);
        EXPECT_EQ(again.source(), TicketSource::kScheduled)
            << "suppressed insert must force a recompute";
        again.get();
    }
    // Disarmed: the next compute is admitted and the one after hits.
    service.submit(ghz(5), backend, opts).get();
    TranspileTicket warm = service.submit(ghz(5), backend, opts);
    EXPECT_EQ(warm.source(), TicketSource::kCacheHit);
    warm.get();
    EXPECT_EQ(service.stats().cache_size, 1u);
}

// ---- (f) backend key memo ---------------------------------------------------

TEST(TranspileServiceBackendMemo, SameObjectTwiceIsAHit)
{
    TranspileService service;
    auto backend = std::make_shared<const Backend>(montreal_backend());
    TranspileTicket first = service.submit(ghz(4), backend);
    first.get();
    TranspileTicket second = service.submit(ghz(4), backend);
    second.get();
    EXPECT_EQ(first.source(), TicketSource::kScheduled);
    EXPECT_EQ(second.source(), TicketSource::kCacheHit);
    EXPECT_EQ(second.key(), first.key());
    EXPECT_EQ(second.key(),
              TranspileService::request_key(ghz(4), *backend, {}));
}

TEST(TranspileServiceBackendMemo, EqualContentObjectsShareEntries)
{
    TranspileService service;
    auto a = std::make_shared<const Backend>(montreal_backend());
    auto b = std::make_shared<const Backend>(montreal_backend());
    ASSERT_NE(a.get(), b.get());
    service.submit(ghz(4), a).get();
    for (int round = 0; round < 4; ++round) {
        for (const auto &backend : {b, a}) {
            TranspileTicket t = service.submit(ghz(4), backend);
            t.get();
            EXPECT_EQ(t.source(), TicketSource::kCacheHit) << round;
        }
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.transpiles_ok, 1u);
    EXPECT_EQ(stats.cache_hits, 8u);
    EXPECT_EQ(stats.evictions_invalidated, 0u);
}

TEST(TranspileServiceBackendMemo, RotationAtAReusedAddressIsAMiss)
{
    // Every backend of this test lives in the same storage, so each
    // rotated B sits exactly where the destroyed A did: a memo keyed on
    // the address alone would hand B the key of A and serve A's entry.
    alignas(Backend) static unsigned char slot[sizeof(Backend)];
    std::atomic<bool> destroyed{true};
    auto place = [&](bool rotated) {
        Backend dev = linear_backend(4);
        if (rotated)
            dev.calibration.error_1q[0] *= 2.0; // same name, new key
        EXPECT_TRUE(destroyed.exchange(false));
        return std::shared_ptr<const Backend>(
            new (slot) Backend(std::move(dev)), [&](const Backend *p) {
                p->~Backend();
                destroyed = true;
            });
    };
    // Drop the last reference and wait out the worker's copy, so the
    // next place() never constructs over a live object.
    auto destroy = [&](std::shared_ptr<const Backend> &backend) {
        backend.reset();
        ASSERT_TRUE(spin_until([&] { return destroyed.load(); }));
    };

    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);
    TranspileOptions opts;
    opts.router = RoutingAlgorithm::kSabre;
    const QuantumCircuit qc = ghz(3);
    for (int round = 0; round < 100; ++round) {
        std::shared_ptr<const Backend> a = place(false);
        service.submit(qc, a, opts).get();
        destroy(a);

        const std::uint64_t invalidated =
            service.stats().evictions_invalidated;
        std::shared_ptr<const Backend> b = place(true);
        ASSERT_EQ(static_cast<const void *>(b.get()), slot);
        TranspileTicket t = service.submit(qc, b, opts);
        t.get();
        EXPECT_EQ(t.source(), TicketSource::kScheduled) << round;
        EXPECT_EQ(t.key(), TranspileService::request_key(qc, *b, opts));
        EXPECT_EQ(service.stats().evictions_invalidated, invalidated + 1)
            << round;
        destroy(b);
    }
    EXPECT_EQ(service.stats().cache_hits, 0u);
    EXPECT_EQ(service.stats().transpiles_ok, 200u);
}

TEST(TranspileServiceBackendMemo, InvalidateBackendMakesTheNextRequestHash)
{
    TranspileService service;
    auto backend = std::make_shared<Backend>(montreal_backend());
    const std::shared_ptr<const Backend> shared = backend;
    const TranspileTicket first = service.submit(ghz(4), shared);
    first.get();

    EXPECT_EQ(service.invalidate_backend("ibmq_montreal"), 1u);
    TranspileTicket again = service.submit(ghz(4), shared);
    again.get();
    EXPECT_EQ(again.source(), TicketSource::kScheduled);
    EXPECT_EQ(again.key(), first.key());
    EXPECT_EQ(service.stats().transpiles_ok, 2u);

    // Editing a backend a service holds breaks its contract: the key
    // is hashed once per object, so the edit goes unseen...
    backend->calibration.error_1q[0] *= 2.0;
    TranspileTicket stale = service.submit(ghz(4), shared);
    stale.get();
    EXPECT_EQ(stale.key(), first.key());
    EXPECT_EQ(stale.source(), TicketSource::kCacheHit);
    // ...until invalidate_backend() forgets which object the key came
    // from, and the next request hashes the edited content.
    service.invalidate_backend("ibmq_montreal");
    TranspileTicket fresh = service.submit(ghz(4), shared);
    fresh.get();
    EXPECT_EQ(fresh.source(), TicketSource::kScheduled);
    EXPECT_NE(fresh.key(), first.key());
    EXPECT_EQ(fresh.key(),
              TranspileService::request_key(ghz(4), *backend, {}));
}

// ---- (h) text probe ---------------------------------------------------------

/** Two services fed one script: `wire` takes each request as text
 *  (submit_qasm, which probes by text first), `parsed` takes
 *  submit(from_qasm(text)). */
struct ProbeDifferential
{
    explicit ProbeDifferential(const ServiceOptions &opts = {})
        : wire(opts), parsed(opts)
    {
    }

    /** One request on both: the same source, key and output bytes. */
    TicketSource
    step(const std::string &text, std::shared_ptr<const Backend> backend,
         const TranspileOptions &options = {},
         const RequestPolicy &policy = {})
    {
        const TranspileTicket w =
            wire.submit_qasm(text, backend, options, policy);
        const TranspileTicket p =
            parsed.submit(from_qasm(text), backend, options, policy);
        EXPECT_EQ(w.source(), p.source());
        EXPECT_EQ(w.key(), p.key());
        EXPECT_EQ(w.get_qasm(), p.get_qasm());
        return w.source();
    }

    /** Equal stats, apart from `text_hits` (only the wire has them) and
     *  the `texts` bytes of request text the wire's entries keep. */
    void
    expect_stats(std::size_t texts, std::uint64_t text_hits) const
    {
        const ServiceStats w = wire.stats(), p = parsed.stats();
        auto fields = [](const ServiceStats &s) {
            return std::vector<std::uint64_t>{
                s.requests,          s.cache_hits,
                s.coalesced,         s.misses,
                s.evictions_capacity, s.evictions_invalidated,
                s.cancelled,         s.shed,
                s.deadline_exceeded, s.transpiles_ok,
                s.transpiles_failed, s.cache_size,
                s.inflight,          s.synth_memo_hits,
                s.synth_memo_misses, s.synth_memos};
        };
        EXPECT_EQ(fields(w), fields(p));
        EXPECT_EQ(w.cache_bytes, p.cache_bytes + texts);
        EXPECT_EQ(w.text_hits, text_hits);
        EXPECT_EQ(p.text_hits, 0u);
    }

    TranspileService wire, parsed;
};

TEST(TranspileServiceTextProbe, MatchesParsedSubmitsStepForStep)
{
    const auto montreal = shared_montreal();
    const auto grid = std::make_shared<const Backend>(grid_backend());
    auto rotated_dev = std::make_shared<Backend>(montreal_backend());
    rotated_dev->calibration.error_1q[0] *= 2.0; // same name, new key
    const std::shared_ptr<const Backend> rotated = rotated_dev;

    const std::string a = to_qasm(qft(4));
    const std::size_t first_nl = a.find('\n') + 1;
    // The same circuit in other bytes: same key, no text match.
    const std::string a_other = a.substr(0, first_nl) +
                                "// the same circuit, other bytes\n" +
                                a.substr(first_nl);
    const std::string b = to_qasm(ghz(5));
    TranspileOptions seeded;
    seeded.seed = 7;

    ProbeDifferential d;
    using S = TicketSource;
    // Repeats: the second is found by text.
    EXPECT_EQ(d.step(a, montreal), S::kScheduled);
    EXPECT_EQ(d.step(a, montreal), S::kCacheHit);
    d.expect_stats(a.size(), 1);
    // The same text under other options or another backend misses.
    EXPECT_EQ(d.step(a, montreal, seeded), S::kScheduled);
    EXPECT_EQ(d.step(a, grid), S::kScheduled);
    d.expect_stats(3 * a.size(), 1);
    // Other bytes hit by key after a parse, every time: the entry keeps
    // the text that filled it.
    EXPECT_EQ(d.step(a_other, montreal), S::kCacheHit);
    EXPECT_EQ(d.step(a_other, montreal), S::kCacheHit);
    EXPECT_EQ(d.step(b, montreal), S::kScheduled);
    d.expect_stats(3 * a.size() + b.size(), 1);

    // An entry too old for the request is dropped and recomputed, and
    // the refilled entry is found by text again.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    RequestPolicy strict;
    strict.cache_ttl_seconds = 0.05;
    EXPECT_EQ(d.step(a, montreal, {}, strict), S::kScheduled);
    EXPECT_EQ(d.step(a, montreal), S::kCacheHit);
    d.expect_stats(3 * a.size() + b.size(), 2);

    // A rotated calibration sweeps montreal's three entries; rotating
    // back sweeps the rotated one.
    EXPECT_EQ(d.step(a, rotated), S::kScheduled);
    d.expect_stats(2 * a.size(), 2);
    EXPECT_EQ(d.step(a, montreal), S::kScheduled);
    d.expect_stats(2 * a.size(), 2);

    EXPECT_EQ(d.wire.invalidate_backend(grid->name), 1u);
    EXPECT_EQ(d.parsed.invalidate_backend(grid->name), 1u);
    d.expect_stats(a.size(), 2);
    EXPECT_EQ(d.step(a, grid), S::kScheduled);
    d.expect_stats(2 * a.size(), 2);

    d.wire.clear_cache();
    d.parsed.clear_cache();
    d.expect_stats(0, 2);
    EXPECT_EQ(d.step(a, montreal), S::kScheduled);
    EXPECT_EQ(d.step(a, montreal), S::kCacheHit);
    d.expect_stats(a.size(), 3);
}

TEST(TranspileServiceTextProbe, ByteBudgetEvictsTheSameEntries)
{
    const auto montreal = shared_montreal();
    const std::string small = to_qasm(ghz(3));
    const std::string big = to_qasm(qft(8));

    // A budget of exactly the big entry with its request text, which
    // the small entry (and its output) always fits beside... until the
    // big one arrives.
    std::size_t budget = 0, small_bytes = 0;
    {
        ServiceOptions unbounded;
        unbounded.cache_max_bytes = 0;
        TranspileService probe(unbounded);
        probe.submit_qasm(big, montreal).get();
        budget = probe.stats().cache_bytes;
        probe.clear_cache();
        probe.submit_qasm(small, montreal).get_qasm();
        small_bytes = probe.stats().cache_bytes;
    }
    // The parsed service evicts too: its small entry outweighs the
    // big entry's request text.
    ASSERT_GT(small_bytes - small.size(), big.size());
    ASSERT_LT(small_bytes, budget);

    ServiceOptions opts;
    opts.cache_max_bytes = budget;
    ProbeDifferential d(opts);
    using S = TicketSource;
    EXPECT_EQ(d.step(small, montreal), S::kScheduled);
    EXPECT_EQ(d.step(small, montreal), S::kCacheHit);
    d.expect_stats(small.size(), 1);
    // The big insert evicts the small entry in both services, and
    // attaching its output (larger than its request text) then evicts
    // the big entry itself.
    EXPECT_EQ(d.step(big, montreal), S::kScheduled);
    d.expect_stats(0, 1);
    EXPECT_EQ(d.wire.stats().evictions_capacity, 2u);
    EXPECT_EQ(d.step(small, montreal), S::kScheduled);
    d.expect_stats(small.size(), 1);
}

// ---- (i) SynthMemo pool ------------------------------------------------------

/** The routed circuit of a free transpile(): fresh distance cache,
 *  fresh stack memo. */
std::string
fresh_qasm(const QuantumCircuit &qc, const Backend &backend,
           const TranspileOptions &opts)
{
    DistanceCache dist;
    return to_qasm(transpile(qc, backend, opts, dist).circuit);
}

TEST(TranspileServiceSynthMemo, WarmedPoolAnswersLikeAFreshTranspile)
{
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);
    const std::vector<std::shared_ptr<const Backend>> backends = {
        shared_montreal(), std::make_shared<const Backend>(grid_backend())};
    std::vector<QuantumCircuit> circuits;
    for (const char *name : {"grover_n4", "vqe_n8", "qpe_n9", "adder_n10"})
        circuits.push_back(benchmark_by_name(name));
    circuits.push_back(ghz(4));
    circuits.push_back(bernstein_vazirani(3, 0b11));

    // Warm the pool on one seed, then serve every request again under
    // fresh seeds: new keys, so each is a transpile on the warm memo.
    for (unsigned seed : {1u, 2u}) {
        const ServiceStats before = service.stats();
        for (const auto &backend : backends)
            for (const QuantumCircuit &qc : circuits)
                for (RoutingAlgorithm router :
                     {RoutingAlgorithm::kNassc, RoutingAlgorithm::kSabre}) {
                    TranspileOptions opts;
                    opts.router = router;
                    opts.seed = seed;
                    TranspileTicket t = service.submit(qc, backend, opts);
                    EXPECT_EQ(t.source(), TicketSource::kScheduled);
                    EXPECT_EQ(t.get_qasm(), fresh_qasm(qc, *backend, opts))
                        << backend->name << " seed " << seed;
                }
        const ServiceStats after = service.stats();
        EXPECT_GT(after.synth_memo_misses, before.synth_memo_misses);
        if (seed == 2u) { // blocks of the first pass recur
            EXPECT_GT(after.synth_memo_hits - before.synth_memo_hits,
                      after.synth_memo_misses - before.synth_memo_misses);
        }
    }
    // Serial requests all lease the one memo.
    EXPECT_EQ(service.stats().synth_memos, 1u);
}

TEST(TranspileServiceSynthMemo, ConcurrentLeasesMatchSequentialOutputs)
{
    constexpr int kWorkers = 4, kClients = 8, kPerClient = 6;
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(kWorkers);
    TranspileService service(sopts);
    const auto backend = shared_montreal();
    const std::vector<QuantumCircuit> smalls = {
        ghz(3), ghz(4), bernstein_vazirani(3, 0b11), qft(4)};

    // Every request a distinct fresh-seed key, its reference computed
    // up front on a fresh memo.
    auto request = [&](int client, int r) {
        const int i = client * kPerClient + r;
        TranspileOptions opts;
        opts.router =
            i % 2 ? RoutingAlgorithm::kNassc : RoutingAlgorithm::kSabre;
        opts.seed = 100 + static_cast<unsigned>(i);
        return std::make_pair(smalls[i % smalls.size()], opts);
    };
    std::vector<std::string> want;
    for (int c = 0; c < kClients; ++c)
        for (int r = 0; r < kPerClient; ++r) {
            const auto [qc, opts] = request(c, r);
            want.push_back(fresh_qasm(qc, *backend, opts));
        }

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            for (int r = 0; r < kPerClient; ++r) {
                const auto [qc, opts] = request(c, r);
                if (service.submit(qc, backend, opts).get_qasm() !=
                    want[static_cast<std::size_t>(c * kPerClient + r)])
                    mismatches.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.transpiles_ok,
              static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_GE(stats.synth_memos, 1u);
    EXPECT_LE(stats.synth_memos, static_cast<std::size_t>(kWorkers));
    EXPECT_GT(stats.synth_memo_hits, 0u);
}

TEST(TranspileServiceSynthMemo, ThrowingTranspileReturnsItsMemo)
{
    failpoint::disarm_all();
    ServiceOptions sopts;
    sopts.scheduler = std::make_shared<Scheduler>(1);
    TranspileService service(sopts);
    const auto backend = shared_montreal();
    const QuantumCircuit qc = benchmark_by_name("grover_n4");
    TranspileOptions opts;
    opts.layout_trials = 2;

    // Both throws come after the pre-routing consolidation has used the
    // memo: a fault in the layout search, and a budget that expired
    // while the request slept before its transpile.
    opts.seed = 1;
    {
        failpoint::ScopedFailpoint fault("layout.trial",
                                         "1*throw(injected trial fault)");
        EXPECT_THROW(service.submit(qc, backend, opts).get(),
                     std::runtime_error);
    }
    opts.seed = 2;
    {
        failpoint::ScopedFailpoint stall("service.transpile",
                                         "1*sleep(300)");
        RequestPolicy policy;
        policy.deadline_ms = 100;
        EXPECT_THROW(service.submit(qc, backend, opts, policy).get(),
                     TranspileDeadlineExceeded);
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.transpiles_failed, 1u);
    EXPECT_EQ(stats.deadline_exceeded, 1u);
    EXPECT_EQ(stats.synth_memos, 1u);
    EXPECT_GT(stats.synth_memo_misses, 0u);

    // The next requests lease the same memo and stay byte-identical.
    for (unsigned seed : {1u, 2u, 3u}) {
        opts.seed = seed;
        EXPECT_EQ(service.submit(qc, backend, opts).get_qasm(),
                  fresh_qasm(qc, *backend, opts))
            << "seed " << seed;
    }
    stats = service.stats();
    EXPECT_EQ(stats.synth_memos, 1u);
    EXPECT_GT(stats.synth_memo_hits, 0u);
}

} // namespace
} // namespace nassc
