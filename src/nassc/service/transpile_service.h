#ifndef NASSC_SERVICE_TRANSPILE_SERVICE_H
#define NASSC_SERVICE_TRANSPILE_SERVICE_H

/**
 * @file
 * Async transpilation front-end with request dedup and a result cache.
 *
 * The paper's pipeline makes routing deliberately expensive per circuit
 * (optimization-aware SWAP selection), so a serving deployment must
 * amortize that cost across concurrent, overlapping, and repeated
 * requests.  TranspileService is that amortization layer:
 *
 *  - submit() hands back a Ticket immediately; the transpile itself
 *    runs as one Scheduler task at the request's
 *    RequestPolicy::priority, interleaved with every other request on
 *    the shared workers (see service/scheduler.h), and settles the
 *    ticket's promise itself.  The request's deadline is an argument
 *    of that task, handed down to the layout search.  submit_qasm() is
 *    the same path with OpenQASM 2.0 text as the wire format — the API
 *    the nasscd daemon serves (serve/server.h), usable in-process too.
 *    A wire request that repeats the exact text of the request that
 *    filled an entry is answered from it without a parse (see
 *    submit_qasm()).
 *  - Requests are identified by a FINGERPRINT KEY — the triple
 *    (QuantumCircuit::fingerprint(), Backend::cache_key(),
 *    TranspileOptions::fingerprint()) — so identity is structural: two
 *    clients submitting the same circuit/device/options meet the same
 *    key no matter how they built the objects (or whether they arrived
 *    as objects or QASM text).  It hashes output identity only: the
 *    options fingerprint skips the execution knobs, and the request's
 *    RequestPolicy is never keyed, so requests differing only there
 *    share one computation and one entry.
 *  - In-flight coalescing: a request whose key is already being
 *    transpiled joins that computation's future instead of starting a
 *    second one — N concurrent identical requests cost ONE transpile.
 *  - The result cache is LRU and DOUBLY bounded: by entry count
 *    (cache_capacity) and by resident bytes (cache_max_bytes), where an
 *    entry costs its routed circuit's actual byte footprint
 *    (QuantumCircuit::memory_bytes) — a burst of wide circuits cannot
 *    blow the memory budget that a thousand tiny ones fit in.  A wire
 *    request's get_qasm() encodes the routed circuit once and keeps
 *    the text in the entry, charged to the same budget; in-process
 *    get() callers never encode and never pay for text.
 *  - Invalidation is EAGER, not just key rotation.  The key already
 *    rotates with Backend::cache_key(), but stale entries used to
 *    linger until LRU eviction; now the service tracks the last seen
 *    cache_key per backend NAME and drops every entry of a rotated
 *    generation the moment the new calibration is first seen
 *    (invalidate_backend() does it explicitly).  TTL is a maximum age
 *    checked at lookup: a request accepts an entry only while it is
 *    younger than its RequestPolicy::cache_ttl_seconds (else
 *    default_ttl_seconds), and drops and recomputes an older one.
 *    Capacity and invalidation evictions are counted separately in
 *    ServiceStats.
 *  - A hit costs O(request), not O(device).  cache_key() hashes the
 *    whole device, so the per-name generation record also keeps a
 *    weak_ptr to the object its key was hashed from, and a request
 *    with that same live object reuses the key.  Any other object is
 *    hashed outside the service lock.  Identity stays structural:
 *    equal-content objects share entries, and a new object under the
 *    name is a rotation.  A Backend must not change while a service
 *    holds it; invalidate_backend() also forgets which object the
 *    key came from.
 *  - transpile() is deterministic per key (seeds live in the options,
 *    which are part of the key), so a hit is BIT-IDENTICAL to a fresh
 *    run, but its seconds, reused_search_route, full_route_passes
 *    and layout_trials_consumed describe the computation that filled
 *    the entry.  Failures are never cached: a throwing request
 *    propagates its exception to every coalesced waiter and the next
 *    submit retries.
 *  - Block resynthesis is remembered across requests.  The service
 *    keeps a pool of SynthMemos (passes/collect_blocks.h) as long as it
 *    lives: each transpile leases one from a LIFO free list, or makes
 *    one, and returns it before its result is settled, so a serial
 *    client always gets the memo its previous request warmed.  A memo
 *    has one user at a time, the pool never holds more memos than the
 *    peak number of concurrent transpiles, and a hit is bit-identical
 *    to a fresh synthesis, so the output never depends on the pool.
 *  - try_cancel() abandons a request nobody else is waiting on, if no
 *    worker has started it (the daemon calls it when a client
 *    disconnects mid-queue); the ticket's get() then throws
 *    TranspileCancelled.
 *
 * Which thread runs a miss: a scheduler worker, for submit() and
 * submit_qasm(), so in-process callers keep their parallelism.  The
 * requesting thread itself, in two cases.  Nesting: a submit issued
 * from inside a scheduler task (e.g. a request that consults the
 * service) runs inline, so a saturated pool can never deadlock behind
 * its own queue.  Blocking callers: call_qasm() (the nasscd connection
 * thread, which would only block on the ticket) runs its miss in a
 * parked worker's place when one is free (Scheduler::CallerSlot), so
 * the request skips the queue and the worker wake-up.  Dedup and
 * caching apply on every path, and a request that has to queue is
 * scheduled, prioritized, shed and cancelled the same way whoever
 * submitted it.
 *
 * Thread safety: every public member is safe to call concurrently.
 * The destructor blocks until all in-flight requests complete, so a
 * Ticket's future never dangles; keep the service alive until every
 * submitter is done.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nassc/service/distance_cache.h"
#include "nassc/service/errors.h"
#include "nassc/service/scheduler.h"
#include "nassc/transpile/transpile.h"

namespace nassc {

/** Completed transpiles are shared read-only between coalesced
 *  requesters and the cache. */
using SharedTranspileResult = std::shared_ptr<const TranspileResult>;

/** Thrown from Ticket::get() when try_cancel() abandoned the request. */
class TranspileCancelled : public std::runtime_error
{
  public:
    TranspileCancelled() : std::runtime_error("transpile request cancelled")
    {
    }
};

/** How a Ticket's result is (being) produced. */
enum class TicketSource {
    kScheduled, ///< owner of a fresh async transpile job
    kInline,    ///< owner, ran on the requesting thread (see the file
                ///< comment: which thread runs a miss)
    kCoalesced, ///< joined an in-flight computation for the same key
    kCacheHit,  ///< served complete from the result cache
};

class TranspileService;

/** Claim check for one submitted request. */
class TranspileTicket
{
  public:
    TranspileTicket() = default;

    bool valid() const { return future_.valid(); }

    /** The request's fingerprint cache key. */
    const std::string &key() const { return key_; }

    TicketSource source() const { return source_; }

    /**
     * Block until the request settles or `slice` passes, and never past
     * a coalesced ticket's deadline.  True once get() will not block:
     * the result (or error) is in, or the wait budget has passed and
     * get() throws TranspileDeadlineExceeded.  The ticket must be
     * valid().
     */
    bool wait_for(std::chrono::steady_clock::duration slice) const;

    /**
     * Block for the result; rethrows the transpile's exception on
     * failure (TranspileCancelled after a successful try_cancel).
     * A COALESCED ticket whose request carried a deadline waits at
     * most until that deadline and then throws
     * TranspileDeadlineExceeded — the computation it joined belongs to
     * another request and may legitimately outlive this one's budget.
     * (Owner tickets wait for settlement: their deadline is enforced
     * cooperatively inside the computation, which degrades or throws.)
     * Safe to call from any thread and repeatedly.
     */
    SharedTranspileResult get() const;

    /**
     * Block for the result and serialize the routed circuit as
     * OpenQASM 2.0 — the wire-format counterpart of get().  The text is
     * encoded at most once per computation: a cache hit, a coalesced
     * waiter and the owner all share it, and the first caller attaches
     * it to the result's cache entry, charged against cache_max_bytes.
     * Call it while the issuing service is alive.
     */
    std::string get_qasm() const;

  private:
    friend class TranspileService;

    /** The OpenQASM text of one computation, shared by its tickets and
     *  its cache entry (defined in transpile_service.cc). */
    struct EncodedQasm;

    std::string key_;
    TicketSource source_ = TicketSource::kScheduled;
    std::shared_future<SharedTranspileResult> future_;
    /** Wait bound for coalesced tickets; max() = none. */
    std::chrono::steady_clock::time_point deadline_ =
        std::chrono::steady_clock::time_point::max();
    std::shared_ptr<EncodedQasm> qasm_;
    TranspileService *service_ = nullptr;
};

/** Per-request quality of service: when a request runs, how long it
 *  may take, and how old a cached answer it accepts.  Never part of
 *  the request key and never read by transpile(). */
struct RequestPolicy
{
    /** Scheduler priority: requests with a higher value are claimed by
     *  workers before lower ones whenever both are runnable. */
    int priority = 0;
    /** Soft wall-clock budget in milliseconds from submit, queue
     *  wait included; 0 = none.  The layout search polls it at trial
     *  boundaries: see TranspileResult::degraded, and
     *  TranspileDeadlineExceeded when no trial completed. */
    int deadline_ms = 0;
    /** Maximum age in seconds of a cached entry this request accepts;
     *  0 defers to ServiceOptions::default_ttl_seconds. */
    double cache_ttl_seconds = 0.0;
};

/** Service configuration. */
struct ServiceOptions
{
    /**
     * Result-cache capacity in entries; 0 disables the cache (requests
     * still coalesce while in flight).
     */
    std::size_t cache_capacity = 256;
    /**
     * Result-cache budget in resident bytes (key + routed-circuit
     * footprint per entry, the request text of an entry a submit_qasm()
     * filled, plus its OpenQASM output once a get_qasm() has encoded
     * it); LRU entries are evicted until the total fits.
     * 0 = no byte bound.  An entry larger than the whole budget is
     * served but never cached.
     */
    std::size_t cache_max_bytes = 64u << 20;
    /**
     * Maximum age in seconds of a cached entry, for requests that do
     * not set RequestPolicy::cache_ttl_seconds themselves, and the age
     * past which purge_expired() drops entries.  0 = no age limit.
     */
    double default_ttl_seconds = 0.0;
    /**
     * Admission control: maximum requests queued (submitted but not yet
     * claimed by a worker or settled).  A miss past the cap throws
     * TranspileOverloaded from submit() instead of queueing — cache
     * hits, coalesced joins, and misses run on the requesting thread
     * are never shed, since none of them add queue depth.
     * 0 = unbounded.
     */
    std::size_t max_queued = 0;
    /** Scheduler to run on; null = Scheduler::shared().  A service
     *  that wants exactly N workers passes its own Scheduler(N). */
    std::shared_ptr<Scheduler> scheduler;
    /** Distance-matrix cache shared by all requests; null = a private
     *  cache owned by the service. */
    std::shared_ptr<DistanceCache> distances;
};

/** Monotonic service counters (snapshot). */
struct ServiceStats
{
    std::uint64_t requests = 0;   ///< submit() calls
    std::uint64_t cache_hits = 0; ///< served complete from the cache
    /** Cache hits submit_qasm() found by request text, without a parse
     *  (also counted in cache_hits). */
    std::uint64_t text_hits = 0;
    std::uint64_t coalesced = 0;  ///< joined an in-flight computation
    std::uint64_t misses = 0;     ///< owned a fresh transpile
    /** Misses run on the requesting thread instead of a worker: a
     *  call_qasm() in a parked worker's place, or a submit from inside
     *  a task (also counted in misses). */
    std::uint64_t caller_runs = 0;
    /** LRU entries dropped to fit the entry or byte capacity. */
    std::uint64_t evictions_capacity = 0;
    /** Entries dropped because they became INVALID: backend-generation
     *  rotation (eager or explicit) or TTL expiry — never because of
     *  space pressure. */
    std::uint64_t evictions_invalidated = 0;
    /** Requests abandoned by try_cancel() before any worker started. */
    std::uint64_t cancelled = 0;
    /** Misses shed by admission control (ServiceOptions::max_queued). */
    std::uint64_t shed = 0;
    /** Requests settled with TranspileDeadlineExceeded (no trial
     *  completed in budget).  Degraded successes count as ok. */
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t transpiles_ok = 0;
    /** Transpiles that threw anything OTHER than a deadline miss. */
    std::uint64_t transpiles_failed = 0;
    /** Local resyntheses (two-qubit blocks, 1q runs and translated 1q
     *  gates) answered, and not answered, by the SynthMemo a transpile
     *  leased from the pool; added when it returns it. */
    std::uint64_t synth_memo_hits = 0;
    std::uint64_t synth_memo_misses = 0;
    /** SynthMemos in the pool, leased or free: the peak number of
     *  concurrent transpiles so far. */
    std::size_t synth_memos = 0;
    std::size_t cache_size = 0;  ///< entries resident now
    std::size_t cache_bytes = 0; ///< resident entry cost now, in bytes
    std::size_t inflight = 0;    ///< keys being transpiled now
};

/** Async transpilation service: scheduler + dedup + bounded cache. */
class TranspileService
{
  public:
    explicit TranspileService(ServiceOptions options = {});

    /** Blocks until every in-flight request has completed. */
    ~TranspileService();

    TranspileService(const TranspileService &) = delete;
    TranspileService &operator=(const TranspileService &) = delete;

    /**
     * Enqueue one request and return its claim check immediately.
     * `backend` is shared because the transpile runs after submit()
     * returns; it must be non-null.  The circuit is copied into the
     * job.  Never throws on transpile errors — those surface from
     * Ticket::get().
     */
    TranspileTicket submit(const QuantumCircuit &circuit,
                           std::shared_ptr<const Backend> backend,
                           const TranspileOptions &options = {},
                           const RequestPolicy &policy = {});

    /**
     * Wire-format submit.  First a text probe: if a cached entry was
     * filled by a submit_qasm() of exactly these bytes under the same
     * backend key and options fingerprint, the request is served from
     * it through the same hit path submit() takes, without a parse.
     * Otherwise `qasm` (OpenQASM 2.0) is parsed, and the request is
     * filed under exactly the key submit() would use — QASM and object
     * submissions of the same circuit dedupe against each other — and
     * the entry it fills keeps the text, charged to its bytes.  Parse
     * errors throw here (std::runtime_error), before anything is
     * enqueued.  The ticket's get_qasm() yields the routed circuit as
     * OpenQASM 2.0.
     */
    TranspileTicket submit_qasm(const std::string &qasm,
                                std::shared_ptr<const Backend> backend,
                                const TranspileOptions &options = {},
                                const RequestPolicy &policy = {});

    /**
     * submit_qasm() for a caller that blocks on the ticket anyway (the
     * nasscd connection thread).  The admission is the same: text
     * probe, cache, coalescing, shed.  But when the request is a fresh
     * miss and the scheduler has a parked worker, the transpile runs
     * on the calling thread in that worker's place
     * (Scheduler::CallerSlot): it never enters the queue, no worker is
     * woken, and the ticket comes back settled with source kInline.
     * Otherwise the request is scheduled exactly as submit_qasm()
     * would schedule it.
     */
    TranspileTicket call_qasm(const std::string &qasm,
                              std::shared_ptr<const Backend> backend,
                              const TranspileOptions &options = {},
                              const RequestPolicy &policy = {});

    /**
     * Abandon `ticket`'s request if (a) it owns a scheduled transpile,
     * (b) no other submit coalesced onto it, and (c) no worker has
     * started it.  On success the job never runs, the ticket's get()
     * throws TranspileCancelled, and stats.cancelled increments.
     * Returns false — and the request proceeds normally — otherwise.
     */
    bool try_cancel(const TranspileTicket &ticket);

    /**
     * Drop every cached entry whose backend NAME matches — the explicit
     * form of the rotation sweep that submit() performs automatically
     * when it first sees a backend name under a new cache_key().  The
     * next request on that name hashes its backend afresh.  Returns
     * the number of entries dropped (counted as invalidation
     * evictions).
     */
    std::size_t invalidate_backend(const std::string &backend_name);

    /** Drop every entry older than default_ttl_seconds now; returns
     *  how many (none when the default is 0). */
    std::size_t purge_expired();

    /** The fingerprint key submit() files `(circuit, backend, options)`
     *  under — exposed for tests. */
    static std::string request_key(const QuantumCircuit &circuit,
                                   const Backend &backend,
                                   const TranspileOptions &options);

    ServiceStats stats() const;

    /** Drop every cached result (stats keep accumulating; not counted
     *  as evictions of either kind). */
    void clear_cache();

    Scheduler &scheduler() const;

    DistanceCache &distance_cache() const { return *distances_; }

  private:
    friend class TranspileTicket; // get_qasm() calls charge_qasm()
    using Clock = std::chrono::steady_clock;

    /** request_key() with `backend_key` == Backend::cache_key(). */
    static std::string request_key(const QuantumCircuit &circuit,
                                   const std::string &backend_key,
                                   const TranspileOptions &options);

    using EncodedQasm = TranspileTicket::EncodedQasm;

    /** `backend`'s cache_key(): memoized per object, else hashed here,
     *  outside mu_. */
    std::string backend_key_of(const std::shared_ptr<const Backend> &backend)
        const;

    /** The key of the entry a submit_qasm() of exactly `qasm` filled
     *  under `backend_key` and `options_fp`, or empty.  Takes mu_. */
    std::string probe_text(const std::string &qasm,
                           const std::string &backend_key,
                           std::uint64_t options_fp) const;

    /** submit_qasm(), or call_qasm() when `caller_waits`. */
    TranspileTicket admit_qasm(const std::string &qasm,
                               std::shared_ptr<const Backend> backend,
                               const TranspileOptions &options,
                               const RequestPolicy &policy,
                               bool caller_waits);

    /**
     * The admission every submit shares, for a request filed under
     * `key`: serve it from the cache, join its in-flight computation,
     * or file and start it.  With `circuit` null (a text probe's
     * match) only a cache hit is served: on any other outcome nothing
     * is counted and the ticket comes back invalid.  `request_qasm` is
     * the request's text, kept by the entry a fresh computation fills;
     * empty for object submits.  `caller_waits` lets a fresh miss run
     * on the calling thread in a parked worker's place.
     */
    TranspileTicket admit(std::string key, const QuantumCircuit *circuit,
                          const std::string &request_qasm,
                          std::shared_ptr<const Backend> backend,
                          const std::string &backend_key,
                          const TranspileOptions &options,
                          const RequestPolicy &policy, bool caller_waits);

    struct CacheEntry
    {
        std::string key;
        SharedTranspileResult result;
        /** Text slot shared with the result's tickets; the text's
         *  bytes join `bytes` once a get_qasm() encodes it. */
        std::shared_ptr<EncodedQasm> qasm;
        std::size_t bytes = 0;       ///< cost charged against the budget
        std::string backend_name;    ///< for generation sweeps
        std::string backend_key;     ///< cache_key() at insert time
        Clock::time_point inserted;  ///< for the TTL age check
        /** Text of the submit_qasm() request that filled the entry,
         *  indexed in by_text_ and charged to `bytes`; empty when an
         *  object submit filled it. */
        std::string request_qasm;
        std::uint64_t options_fp = 0; ///< TranspileOptions::fingerprint()
    };

    /** In-flight computation, joined by coalescing requests. */
    struct Inflight
    {
        std::shared_future<SharedTranspileResult> future;
        std::shared_ptr<std::promise<SharedTranspileResult>> promise;
        std::shared_ptr<EncodedQasm> qasm; ///< shared by coalesced tickets
        std::string request_qasm; ///< the owner's submit_qasm() text
        Scheduler::JobHandle handle; ///< unbound for inline runs
        std::size_t waiters = 1;     ///< owner + coalesced tickets
    };

    /** Run one owned request and settle its promise.  Any thread.
     *  `qasm` is the computation's text slot, cached with the result;
     *  `backend_key` is backend.cache_key(), hashed once per backend
     *  object by submit();
     *  `deadline` is the request's absolute budget (max() = none);
     *  `submitted` is when submit() accepted it (queue-wait metric);
     *  `dequeue` says whether this request was counted in queued_. */
    void run_request(const std::string &key, const std::string &backend_key,
                     const QuantumCircuit &circuit, const Backend &backend,
                     const TranspileOptions &options,
                     const std::shared_ptr<std::promise<SharedTranspileResult>>
                         &promise,
                     const std::shared_ptr<EncodedQasm> &qasm,
                     Clock::time_point deadline, Clock::time_point submitted,
                     bool dequeue);

    /** Insert into the cache, evicting to fit both bounds.  Under mu_.
     *  `backend_key` is the request backend's cache_key();
     *  `request_qasm` the owner's submit_qasm() text (may be empty),
     *  indexed by text under `backend_key` and `options_fp`. */
    void cache_insert(const std::string &key, SharedTranspileResult result,
                      std::shared_ptr<EncodedQasm> qasm,
                      std::string request_qasm, std::uint64_t options_fp,
                      const std::string &backend_name,
                      const std::string &backend_key);

    /** Charge `qasm`'s freshly encoded text to the entry that holds it,
     *  then evict to fit.  No-op if that entry is gone.  Takes mu_. */
    void charge_qasm(const std::string &key, const EncodedQasm *qasm);

    /** Evict LRU entries until both bounds hold.  Under mu_. */
    void evict_to_fit();

    /** Erase one entry by its LRU iterator.  Under mu_. */
    std::list<CacheEntry>::iterator
    cache_erase(std::list<CacheEntry>::iterator it);

    /** `backend`'s cache_key() if its name's generation record was
     *  hashed from this very object, which must still be alive; empty
     *  otherwise.  Takes mu_. */
    std::string memoized_backend_key(
        const std::shared_ptr<const Backend> &backend) const;

    /** Record that `backend`'s name is now at generation `backend_key`
     *  (its cache_key()), with `backend` as the object the key was
     *  hashed from; if the name was last seen under a DIFFERENT key,
     *  sweep that stale generation.  Under mu_.  Returns entries
     *  dropped. */
    std::size_t
    note_backend_generation(const std::shared_ptr<const Backend> &backend,
                            const std::string &backend_key);

    ServiceOptions options_;
    std::shared_ptr<Scheduler> scheduler_; ///< null = Scheduler::shared()
    std::shared_ptr<DistanceCache> distances_;

    mutable std::mutex mu_;
    std::condition_variable drained_;
    std::size_t inflight_count_ = 0; ///< submitted, promise not yet settled
    /** Scheduled misses not yet claimed-or-settled, for max_queued. */
    std::size_t queued_ = 0;
    std::unordered_map<std::string, Inflight> inflight_;
    /** LRU list, most recent first, + index into it. */
    std::list<CacheEntry> lru_;
    std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_;
    /** What submit_qasm() probes by: views of an entry's own request
     *  text and backend key, and its options fingerprint.  At most one
     *  entry has each: equal probes mean equal request keys. */
    struct TextProbe
    {
        std::string_view text;
        std::string_view backend_key;
        std::uint64_t options_fp = 0;

        bool operator==(const TextProbe &o) const
        {
            return options_fp == o.options_fp &&
                   backend_key == o.backend_key && text == o.text;
        }
    };
    /** Not noexcept on purpose: the table then caches each node's hash
     *  instead of hashing whole texts again when it rehashes. */
    struct TextProbeHash
    {
        std::size_t operator()(const TextProbe &p) const;
    };
    /** Entries with a request text, by TextProbe. */
    std::unordered_map<TextProbe, std::list<CacheEntry>::iterator,
                       TextProbeHash>
        by_text_;
    std::size_t cache_bytes_ = 0;
    /** Free SynthMemos, the most recently returned last; a transpile
     *  leases from the back.  Under mu_. */
    std::vector<std::unique_ptr<SynthMemo>> free_memos_;
    /** One backend name's current generation. */
    struct BackendGeneration
    {
        std::string key; ///< last cache_key() seen under the name
        /** The object `key` was hashed from: submit() reuses `key` for
         *  it while it lives, instead of hashing O(device) again.
         *  Empty after invalidate_backend(). */
        std::weak_ptr<const Backend> source;
    };
    /** Generation tracking and the per-object key memo, by name. */
    std::unordered_map<std::string, BackendGeneration> generation_;
    ServiceStats stats_;
};

} // namespace nassc

#endif // NASSC_SERVICE_TRANSPILE_SERVICE_H
