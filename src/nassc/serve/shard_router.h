#ifndef NASSC_SERVE_SHARD_ROUTER_H
#define NASSC_SERVE_SHARD_ROUTER_H

/**
 * @file
 * ShardRouter: consistent-hash request routing across a fleet of nasscd
 * worker shards, with health tracking and transparent failover.
 *
 * The front-door daemon (`nasscd --shards N`) decodes nothing beyond
 * what it needs to compute the request key — the same
 * `Circuit::fingerprint() x Backend::cache_key() x
 * Options::fingerprint()` triple TranspileService files requests under
 * (TranspileService::request_key) — and forwards the raw frame to the
 * shard that owns the key's point on a consistent-hash ring.  Keyspace
 * ownership is what makes sharding preserve the dedup invariant
 * fleet-wide: every submission of one key lands on one shard, so that
 * shard's coalescing and cache see ALL duplicates and
 * `transpiles == distinct keys` holds across the fleet exactly as it
 * does in one process.
 *
 * HashRing uses virtual nodes (default 64 per shard) so keyspace slices
 * stay balanced at small N, and FNV-1a (ir/fnv1a.h) for both ring
 * points and key points — no new hash primitive.  Ring stability is
 * structural: shard i's points are fnv1a("shard-<i>/<r>"), so adding or
 * removing a shard never moves another shard's points, and only keys in
 * the vanished (or appearing) arcs remap.
 *
 * Failover: a forward that fails in transit (EOF/ECONNRESET mid-frame,
 * connect refused, I/O timeout on a wedged peer) marks the shard dead
 * and retries on the ring's next live owner after a short backoff.
 * This is safe — at-most-once effects are NOT required — because
 * transpiles are deterministic and pure: a request replayed on another
 * shard (or on the restarted one) produces bit-identical QASM, and at
 * worst the fleet transpiles one key twice across a crash epoch, which
 * the acceptance accounting tolerates by resetting with the crashed
 * shard's counters.  Degraded/failed results are never cached, so a
 * half-finished crash leaves no poison behind.
 *
 * Health: dead shards are retried via half-open probes — one forwarding
 * thread per probe interval gets to try a dead shard's endpoint; on
 * success the shard is marked live again and its keyspace arc snaps
 * back (cache still warm from before the crash).  The Supervisor's
 * ping health checks and SIGCHLD exit notifications drive the same
 * mark_live()/mark_dead() edges from outside.
 *
 * Monitoring: the front answers `metrics` with merged_metrics() — the
 * bucket-exact merge of its workers' scrapes followed by the router's
 * own rows (shard liveness, forwards, failovers, errors) — so one
 * scrape shows both fleet load and fleet health, and a client's
 * `stats()` view of it reads both.  Monitoring never changes liveness:
 * merged_metrics() skips a shard whose scrape fails and counts it in
 * `scrape_errors`, so a slow monitoring read cannot eject a healthy
 * shard from the ring.
 *
 * Thread safety: forward() and merged_metrics() are safe from any
 * number of connection threads; per-shard connection pools are mutex'd
 * and liveness is atomics.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "nassc/serve/client.h"

namespace nassc {

/**
 * A consistent-hash ring mapping 64-bit points to shard indices via
 * virtual nodes.  Pure data structure (no I/O, no locking) — build
 * once, share const.  Exposed separately from ShardRouter so the
 * remap-stability properties are unit testable without sockets.
 */
class HashRing
{
  public:
    /** Ring over shards [0, shard_count) with `replicas` virtual nodes
     *  per shard.  @throws std::invalid_argument on zero either way. */
    HashRing(int shard_count, int replicas = 64);

    /** Hash a request key onto the ring's point space. */
    static std::uint64_t key_point(const std::string &key);

    /** The shard owning `point`: first ring point clockwise. */
    int owner(std::uint64_t point) const;

    /** The first shard clockwise of `point` for which `live(shard)`
     *  returns true; -1 when every shard is down. */
    int owner_live(std::uint64_t point,
                   const std::function<bool(int)> &live) const;

    int shard_count() const { return shard_count_; }
    int replicas() const { return replicas_; }

  private:
    int shard_count_;
    int replicas_;
    /** (ring point, shard) sorted by point; ties broken by shard index
     *  during construction so the ring is deterministic. */
    std::vector<std::pair<std::uint64_t, int>> points_;
};

/** Configuration for one ShardRouter. */
struct ShardRouterOptions
{
    /** Worker endpoints; shard index == vector index. */
    std::vector<ServeEndpoint> shards;
    /** Virtual nodes per shard on the ring. */
    int replicas = 64;
    /** Per-send/recv socket timeout on shard connections, so a hung
     *  worker surfaces as TranspileTransportTimeout and fails over
     *  instead of wedging a front-door connection thread.  0 = block
     *  forever (tests only). */
    int io_timeout_ms = 30000;
    /** Total forward tries per request across failovers. */
    int forward_attempts = 6;
    /** Base sleep between failover attempts (jittered upward). */
    int failover_backoff_ms = 25;
    /** How often one forwarding thread may half-open-probe a dead
     *  shard's endpoint. */
    int probe_interval_ms = 250;
    /** Idle pooled connections kept per shard. */
    std::size_t pool_cap_per_shard = 8;
    /** Extra (name, value) counters appended to merged_metrics() as
     *  `nassc_<name>_total` — the supervisor hooks its
     *  restart/quarantine counters in here. */
    std::function<std::vector<std::pair<std::string, std::uint64_t>>()>
        extra_counters;
};

/** Monotonic counters for the front door's own behaviour. */
struct ShardRouterStats
{
    std::uint64_t forwards = 0;       ///< frames forwarded (incl. retries)
    std::uint64_t failovers = 0;      ///< forwards re-routed after a fault
    std::uint64_t forward_errors = 0; ///< faults observed talking to shards
};

/** Routes raw NASSC/1 frames to the owning shard; see file comment. */
class ShardRouter
{
  public:
    explicit ShardRouter(ShardRouterOptions options);
    ~ShardRouter();

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    /**
     * Forward the raw request `payload` to the shard owning `key` and
     * return the shard's raw response payload.  Transparent failover:
     * transport faults mark the shard dead and re-route to the next
     * live owner (bounded by forward_attempts with jittered backoff).
     * @throws TranspileOverloaded when attempts are exhausted or no
     * shard is live — always client-retryable, because transpiles are
     * pure and the supervisor is restarting workers meanwhile.
     *
     * A non-empty `trace_id` is stamped into the forwarded frame's
     * header (the payload bytes stay identical) so the worker's spans
     * join the front door's trace.
     */
    std::string forward(const std::string &key, const std::string &payload,
                        const std::string &trace_id = std::string());

    /**
     * `metrics` fanned out to every live shard, merged bucket-wise with
     * obs::merge_prometheus (exact: every histogram in the fleet shares
     * one fixed bucket-bound table), then the front door's own rows:
     * gauges shards, shards_live and shard<i>_live; counters forwards,
     * failovers, forward_errors, scrape_errors and the options'
     * extra_counters.  The front's own registry and service are NOT
     * mixed in (they see no transpiles).  A shard whose scrape fails is
     * skipped and counted in scrape_errors; it stays live — monitoring
     * never fails, it narrows.
     */
    std::string merged_metrics();

    /** Liveness edges (supervisor exit/health events land here too).
     *  mark_dead() drops the shard's pooled connections. */
    void mark_live(int shard);
    void mark_dead(int shard);
    bool is_live(int shard) const;
    int live_count() const;

    /** Close every pooled connection (drain; workers are going away). */
    void close_pools();

    const HashRing &ring() const { return ring_; }
    int shard_count() const { return static_cast<int>(states_.size()); }
    ShardRouterStats stats_snapshot() const;

  private:
    struct ShardState
    {
        ServeEndpoint endpoint;
        std::atomic<bool> live{true};
        /** Steady-clock ms after which the next half-open probe may
         *  dial; CAS'd so exactly one thread probes per interval. */
        std::atomic<std::int64_t> next_probe_ms{0};
        std::mutex pool_mu;
        std::vector<ServeClient> pool;
    };

    /** Dial or un-pool a connection to `shard`. */
    ServeClient acquire(ShardState &state);
    /** Return a healthy connection to the pool (drops past the cap). */
    void release(ShardState &state, ServeClient &&client);
    /** One frame round-trip on one connection; a non-empty `trace_id`
     *  is stamped into the outgoing frame header. */
    std::string roundtrip(ServeClient &client, const std::string &payload,
                          const std::string &trace_id = std::string());
    /** Pick the live owner for `point`, allowing a rate-limited
     *  half-open probe of dead shards; -1 when nothing is eligible. */
    int pick_shard(std::uint64_t point);
    ShardRouterOptions options_;
    HashRing ring_;
    std::vector<std::unique_ptr<ShardState>> states_;
    std::atomic<std::uint64_t> forwards_{0};
    std::atomic<std::uint64_t> failovers_{0};
    std::atomic<std::uint64_t> forward_errors_{0};
    std::atomic<std::uint64_t> scrape_errors_{0};
};

} // namespace nassc

#endif // NASSC_SERVE_SHARD_ROUTER_H
