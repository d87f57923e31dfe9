#include "nassc/serve/shard_router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>

#include "nassc/ir/fnv1a.h"
#include "nassc/obs/metrics.h"
#include "nassc/service/errors.h"

namespace nassc {

namespace {

std::int64_t
steady_ms()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a + a murmur3-style avalanche.  Raw FNV-1a of short strings
 *  that differ only in trailing bytes lands in one tiny interval of
 *  the 64-bit space (the differing bytes pass through too few prime
 *  multiplications to reach the high bits), which would park whole key
 *  families on one shard.  The finalizer spreads every input bit over
 *  the word so ring points and key points are uniform. */
std::uint64_t
ring_hash(const std::string &s)
{
    Fnv1a h;
    h.str(s);
    std::uint64_t x = h.value();
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

} // namespace

HashRing::HashRing(int shard_count, int replicas)
    : shard_count_(shard_count), replicas_(replicas)
{
    if (shard_count <= 0)
        throw std::invalid_argument("HashRing: shard_count must be > 0");
    if (replicas <= 0)
        throw std::invalid_argument("HashRing: replicas must be > 0");
    points_.reserve(static_cast<std::size_t>(shard_count) *
                    static_cast<std::size_t>(replicas));
    for (int shard = 0; shard < shard_count; ++shard)
        for (int r = 0; r < replicas; ++r)
            points_.emplace_back(
                ring_hash("shard-" + std::to_string(shard) + "/" +
                          std::to_string(r)),
                shard);
    // Tie-break on shard index so two rings built over the same count
    // are identical regardless of emplacement order.
    std::sort(points_.begin(), points_.end());
}

std::uint64_t
HashRing::key_point(const std::string &key)
{
    return ring_hash(key);
}

int
HashRing::owner(std::uint64_t point) const
{
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(point, std::numeric_limits<int>::min()));
    if (it == points_.end())
        it = points_.begin(); // wrap past the last ring point
    return it->second;
}

int
HashRing::owner_live(std::uint64_t point,
                     const std::function<bool(int)> &live) const
{
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(point, std::numeric_limits<int>::min()));
    // Walk at most one full revolution, skipping points of dead shards;
    // consecutive points of one dead shard cost one predicate call
    // each, which is fine at 64 replicas x small N.
    for (std::size_t step = 0; step < points_.size(); ++step, ++it) {
        if (it == points_.end())
            it = points_.begin();
        if (live(it->second))
            return it->second;
    }
    return -1;
}

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)),
      ring_(static_cast<int>(options_.shards.size()), options_.replicas)
{
    states_.reserve(options_.shards.size());
    for (const ServeEndpoint &endpoint : options_.shards) {
        auto state = std::make_unique<ShardState>();
        state->endpoint = endpoint;
        states_.push_back(std::move(state));
    }
}

ShardRouter::~ShardRouter()
{
    close_pools();
}

ServeClient
ShardRouter::acquire(ShardState &state)
{
    {
        std::lock_guard<std::mutex> lk(state.pool_mu);
        if (!state.pool.empty()) {
            ServeClient client = std::move(state.pool.back());
            state.pool.pop_back();
            return client;
        }
    }
    ServeClient client = state.endpoint.connect();
    if (options_.io_timeout_ms > 0)
        client.set_io_timeout(options_.io_timeout_ms);
    return client;
}

void
ShardRouter::release(ShardState &state, ServeClient &&client)
{
    std::lock_guard<std::mutex> lk(state.pool_mu);
    if (state.pool.size() < options_.pool_cap_per_shard)
        state.pool.push_back(std::move(client));
    // else: client destructor closes the surplus connection
}

std::string
ShardRouter::roundtrip(ServeClient &client, const std::string &payload,
                       const std::string &trace_id)
{
    write_frame(client.fd(), payload, trace_id);
    std::string response;
    if (!read_frame(client.fd(), response))
        throw std::runtime_error("shard closed the connection mid-request");
    return response;
}

int
ShardRouter::pick_shard(std::uint64_t point)
{
    const std::int64_t now = steady_ms();
    return ring_.owner_live(point, [&](int shard) {
        ShardState &state = *states_[static_cast<std::size_t>(shard)];
        if (state.live.load(std::memory_order_acquire))
            return true;
        // Half-open probe: exactly one forwarding thread per interval
        // wins the CAS and gets to try the dead shard; everyone else
        // keeps skipping it.  Success is decided by the forward itself
        // (mark_live on a completed round-trip).
        std::int64_t at = state.next_probe_ms.load(std::memory_order_relaxed);
        return at <= now &&
               state.next_probe_ms.compare_exchange_strong(
                   at, now + options_.probe_interval_ms,
                   std::memory_order_relaxed);
    });
}

std::string
ShardRouter::forward(const std::string &key, const std::string &payload,
                     const std::string &trace_id)
{
    const std::uint64_t point = HashRing::key_point(key);
    const int attempts = std::max(1, options_.forward_attempts);
    std::string last_error = "no live shard";
    std::minstd_rand rng(static_cast<unsigned>(point) + 1);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            failovers_.fetch_add(1, std::memory_order_relaxed);
            // Jittered linear-ish backoff: enough for the supervisor's
            // restart or another shard's probe window, without parking
            // a connection thread for seconds.
            const long base = options_.failover_backoff_ms > 0
                                  ? options_.failover_backoff_ms
                                  : 1;
            const long wait =
                base + static_cast<long>(rng() % static_cast<unsigned long>(
                                                     base * attempt + 1));
            std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        }
        const int shard = pick_shard(point);
        if (shard < 0)
            continue;
        ShardState &state = *states_[static_cast<std::size_t>(shard)];
        try {
            ServeClient client = acquire(state);
            forwards_.fetch_add(1, std::memory_order_relaxed);
            std::string response = roundtrip(client, payload, trace_id);
            mark_live(shard);
            release(state, std::move(client));
            return response;
        } catch (const std::exception &e) {
            // Any fault talking to the shard — refused connect, EOF or
            // reset mid-frame, I/O timeout on a wedged peer — is
            // grounds for failover.  The replay is safe: transpiles
            // are pure and deterministic, so whichever shard answers
            // produces bit-identical QASM, and degraded/failed results
            // are never cached.
            forward_errors_.fetch_add(1, std::memory_order_relaxed);
            last_error = e.what();
            mark_dead(shard);
        }
    }
    // Exhaustion maps to the overloaded wire status (retry-after hint
    // included by the server), NOT a hard error: the client may always
    // retry while the supervisor restarts workers.
    throw TranspileOverloaded("shard fleet unavailable after " +
                              std::to_string(attempts) +
                              " attempts; last error: " + last_error);
}

std::string
ShardRouter::merged_metrics()
{
    ServeRequest request;
    request.verb = "metrics";
    const std::string payload = encode_request(request);
    std::vector<std::string> bodies;
    for (int shard = 0; shard < shard_count(); ++shard) {
        ShardState &state = *states_[static_cast<std::size_t>(shard)];
        if (!state.live.load(std::memory_order_acquire))
            continue;
        try {
            ServeClient client = acquire(state);
            ServeResponse resp = parse_response(roundtrip(client, payload));
            if (resp.status != "ok")
                throw std::runtime_error("shard metrics error: " +
                                         resp.error);
            release(state, std::move(client));
            bodies.push_back(std::move(resp.metrics));
        } catch (const std::exception &) {
            // Monitoring must never change serving: a slow or failed
            // read only drops this shard from this scrape.  Liveness
            // belongs to forward() and the supervisor's health checks.
            scrape_errors_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    std::string out = obs::merge_prometheus(bodies);
    obs::render_row(out, "gauge", "shards", "Worker shards configured",
                    static_cast<std::uint64_t>(shard_count()));
    obs::render_row(out, "gauge", "shards_live", "Worker shards live",
                    static_cast<std::uint64_t>(live_count()));
    for (int shard = 0; shard < shard_count(); ++shard)
        obs::render_row(out, "gauge",
                        "shard" + std::to_string(shard) + "_live",
                        "Whether this worker shard is live",
                        is_live(shard) ? 1u : 0u);
    const ShardRouterStats rs = stats_snapshot();
    obs::render_row(out, "counter", "forwards",
                    "Frames forwarded to shards, retries included",
                    rs.forwards);
    obs::render_row(out, "counter", "failovers",
                    "Forwards re-routed after a fault", rs.failovers);
    obs::render_row(out, "counter", "forward_errors",
                    "Faults observed talking to shards", rs.forward_errors);
    obs::render_row(out, "counter", "scrape_errors",
                    "Shard metrics scrapes that failed",
                    scrape_errors_.load(std::memory_order_relaxed));
    if (options_.extra_counters)
        for (const auto &kv : options_.extra_counters())
            obs::render_row(out, "counter", kv.first, "Front-door counter",
                            kv.second);
    return out;
}

void
ShardRouter::mark_live(int shard)
{
    states_[static_cast<std::size_t>(shard)]->live.store(
        true, std::memory_order_release);
}

void
ShardRouter::mark_dead(int shard)
{
    ShardState &state = *states_[static_cast<std::size_t>(shard)];
    state.live.store(false, std::memory_order_release);
    // Pooled connections go to a process that just died (or wedged);
    // drop them so a restarted shard gets fresh dials.
    std::vector<ServeClient> doomed;
    {
        std::lock_guard<std::mutex> lk(state.pool_mu);
        doomed = std::move(state.pool);
        state.pool.clear();
    }
    // doomed destructs outside the lock, closing the fds.
}

bool
ShardRouter::is_live(int shard) const
{
    return states_[static_cast<std::size_t>(shard)]->live.load(
        std::memory_order_acquire);
}

int
ShardRouter::live_count() const
{
    int live = 0;
    for (int shard = 0; shard < shard_count(); ++shard)
        if (is_live(shard))
            ++live;
    return live;
}

void
ShardRouter::close_pools()
{
    for (auto &state : states_) {
        std::vector<ServeClient> doomed;
        std::lock_guard<std::mutex> lk(state->pool_mu);
        doomed = std::move(state->pool);
        state->pool.clear();
    }
}

ShardRouterStats
ShardRouter::stats_snapshot() const
{
    ShardRouterStats s;
    s.forwards = forwards_.load(std::memory_order_relaxed);
    s.failovers = failovers_.load(std::memory_order_relaxed);
    s.forward_errors = forward_errors_.load(std::memory_order_relaxed);
    return s;
}

} // namespace nassc
