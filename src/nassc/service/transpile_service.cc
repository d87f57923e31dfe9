#include "nassc/service/transpile_service.h"

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "nassc/ir/qasm.h"
#include "nassc/obs/event_log.h"
#include "nassc/obs/metrics.h"
#include "nassc/obs/trace.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/service/failpoint.h"

namespace nassc {

namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Is an entry inserted at `inserted` at least `ttl_seconds` old at
 *  `now`?  A TTL of 0 (or NaN) sets no age limit. */
bool
older_than(std::chrono::steady_clock::time_point inserted,
           double ttl_seconds, std::chrono::steady_clock::time_point now)
{
    return ttl_seconds > 0.0 &&
           std::chrono::duration<double>(now - inserted).count() >=
               ttl_seconds;
}

} // namespace

std::size_t
TranspileService::TextProbeHash::operator()(const TextProbe &p) const
{
    const std::hash<std::string_view> h;
    return h(p.text) ^ (h(p.backend_key) * 31) ^
           static_cast<std::size_t>(p.options_fp);
}

/** Encoded once, under `mu`, by the first get_qasm(). */
struct TranspileTicket::EncodedQasm
{
    std::mutex mu;
    bool encoded = false;
    std::string text;
};

SharedTranspileResult
TranspileTicket::get() const
{
    // Only coalesced tickets carry a wait bound: the computation they
    // joined belongs to another request and may legitimately run past
    // this one's budget.  Owner tickets wait for settlement — their
    // deadline lives INSIDE the computation (degrade or throw), which
    // may finish slightly after it while completing the last trial.
    if (deadline_ != std::chrono::steady_clock::time_point::max() &&
        future_.wait_until(deadline_) == std::future_status::timeout)
        throw TranspileDeadlineExceeded(
            "transpile deadline exceeded waiting on a coalesced "
            "computation");
    return future_.get();
}

bool
TranspileTicket::wait_for(std::chrono::steady_clock::duration slice) const
{
    const auto now = std::chrono::steady_clock::now();
    // deadline_ - now cannot overflow: deadline_ is max() or near now.
    const auto until = deadline_ - now < slice ? deadline_ : now + slice;
    return future_.wait_until(until) == std::future_status::ready ||
           std::chrono::steady_clock::now() >= deadline_;
}

std::string
TranspileTicket::get_qasm() const
{
    const SharedTranspileResult result = get();
    std::lock_guard<std::mutex> lk(qasm_->mu);
    if (!qasm_->encoded) {
        qasm_->text = to_qasm(result->circuit);
        qasm_->text.shrink_to_fit(); // charged by size: keep no slack
        qasm_->encoded = true;
        service_->charge_qasm(key_, qasm_.get());
    }
    return qasm_->text;
}

std::string
TranspileService::request_key(const QuantumCircuit &circuit,
                              const Backend &backend,
                              const TranspileOptions &options)
{
    return request_key(circuit, backend.cache_key(), options);
}

std::string
TranspileService::request_key(const QuantumCircuit &circuit,
                              const std::string &backend_key,
                              const TranspileOptions &options)
{
    // The circuit and options fingerprints are 64-bit FNV-1a values;
    // the backend contributes its own cache_key(), which already
    // fingerprints topology + calibration.  '|' never appears inside
    // the hex fragments, so the triple cannot alias across fields.
    return hex64(circuit.fingerprint()) + "|" + backend_key + "|" +
           hex64(options.fingerprint());
}

TranspileService::TranspileService(ServiceOptions options)
    : options_(std::move(options)), scheduler_(options_.scheduler),
      distances_(options_.distances)
{
    if (!distances_)
        distances_ = std::make_shared<DistanceCache>();
}

TranspileService::~TranspileService()
{
    // Every promise settles (run_request catches everything, try_cancel
    // settles what it abandons), so the drain always terminates; after
    // it, no task touches `this`.
    std::unique_lock<std::mutex> lk(mu_);
    drained_.wait(lk, [&] { return inflight_count_ == 0; });
}

Scheduler &
TranspileService::scheduler() const
{
    return scheduler_ ? *scheduler_ : Scheduler::shared();
}

void
TranspileService::evict_to_fit()
{
    while (lru_.size() > options_.cache_capacity ||
           (options_.cache_max_bytes != 0 &&
            cache_bytes_ > options_.cache_max_bytes)) {
        cache_erase(std::prev(lru_.end()));
        ++stats_.evictions_capacity;
    }
}

void
TranspileService::charge_qasm(const std::string &key,
                              const EncodedQasm *qasm)
{
    std::lock_guard<std::mutex> lk(mu_);
    // The entry may have been evicted, invalidated or replaced by a
    // recompute since the ticket was issued; the text then lives only
    // as long as the tickets that share it.
    auto it = cache_.find(key);
    if (it == cache_.end() || it->second->qasm.get() != qasm)
        return;
    it->second->bytes += qasm->text.size();
    cache_bytes_ += qasm->text.size();
    evict_to_fit();
}

std::list<TranspileService::CacheEntry>::iterator
TranspileService::cache_erase(std::list<CacheEntry>::iterator it)
{
    if (!it->request_qasm.empty())
        by_text_.erase({it->request_qasm, it->backend_key, it->options_fp});
    cache_bytes_ -= it->bytes;
    cache_.erase(it->key);
    return lru_.erase(it);
}

std::string
TranspileService::memoized_backend_key(
    const std::shared_ptr<const Backend> &backend) const
{
    // Matching the raw address alone is not enough: a destroyed
    // object's address can be reused by its replacement.  lock() only
    // yields the recorded object while it lives.
    std::shared_ptr<const Backend> source;
    std::string key;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = generation_.find(backend->name);
        if (it == generation_.end())
            return key;
        source = it->second.source.lock();
        if (source == backend)
            key = it->second.key;
    }
    // `source` is released here, outside mu_: should it be the last
    // owner, the O(device) destructor must not run under the lock.
    return key;
}

std::size_t
TranspileService::note_backend_generation(
    const std::shared_ptr<const Backend> &backend,
    const std::string &backend_key)
{
    auto inserted = generation_.try_emplace(backend->name);
    BackendGeneration &gen = inserted.first->second;
    const bool rotated = !inserted.second && gen.key != backend_key;
    if (inserted.second || rotated)
        gen.key = backend_key;
    gen.source = backend;
    if (!rotated)
        return 0;
    // First contact with a rotated calibration: drop the stale
    // generation NOW instead of letting it ride the LRU tail.
    std::size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->backend_name == backend->name &&
            it->backend_key != backend_key) {
            it = cache_erase(it);
            ++stats_.evictions_invalidated;
            ++dropped;
        } else {
            ++it;
        }
    }
    return dropped;
}

void
TranspileService::cache_insert(const std::string &key,
                               SharedTranspileResult result,
                               std::shared_ptr<EncodedQasm> qasm,
                               std::string request_qasm,
                               std::uint64_t options_fp,
                               const std::string &backend_name,
                               const std::string &backend_key)
{
    if (options_.cache_capacity == 0)
        return;
    // Behaviour site: an armed trigger drops the insert, simulating a
    // result that is computed but never cached (every waiter is still
    // served; only the NEXT submit recomputes).  kTrigger only — this
    // runs under mu_, where sleeping or throwing would be unsafe.
    if (failpoint::eval("service.cache_insert").kind ==
        failpoint::Hit::Kind::kTrigger)
        return;
    {
        // A result computed against a generation that rotated while it
        // was in flight is stale on arrival: never insert it.
        auto gen = generation_.find(backend_name);
        if (gen != generation_.end() && gen->second.key != backend_key) {
            ++stats_.evictions_invalidated;
            return;
        }
    }

    CacheEntry entry;
    entry.key = key;
    entry.result = std::move(result);
    entry.qasm = std::move(qasm);
    entry.backend_name = backend_name;
    entry.backend_key = backend_key;
    entry.inserted = Clock::now();
    entry.request_qasm = std::move(request_qasm);
    entry.options_fp = options_fp;
    // Cost = what the entry actually keeps resident: the routed
    // circuit's heap footprint, the request text it is probed by, and
    // the entry/index bookkeeping (the key is stored twice: list node +
    // index map).  Its output text, once encoded, is charged by
    // charge_qasm().
    entry.bytes = sizeof(CacheEntry) + sizeof(TranspileResult) +
                  sizeof(EncodedQasm) +
                  2 * entry.key.size() + entry.backend_name.size() +
                  entry.backend_key.size() + entry.request_qasm.size() +
                  entry.result->circuit.memory_bytes() +
                  (entry.result->initial_l2p.capacity() +
                   entry.result->final_l2p.capacity()) *
                      sizeof(int);
    if (options_.cache_max_bytes != 0 &&
        entry.bytes > options_.cache_max_bytes)
        return; // larger than the whole budget: serve, never cache

    auto it = cache_.find(key);
    if (it != cache_.end()) {
        // Possible when clear_cache raced an in-flight recompute of a
        // key that was then resubmitted; keep the newest, refresh LRU.
        cache_erase(it->second);
    }
    cache_bytes_ += entry.bytes;
    lru_.push_front(std::move(entry));
    cache_.emplace(key, lru_.begin());
    // The index views strings in the list node, which never moves.
    const CacheEntry &front = lru_.front();
    if (!front.request_qasm.empty())
        by_text_.emplace(TextProbe{front.request_qasm, front.backend_key,
                                   front.options_fp},
                         lru_.begin());
    evict_to_fit();
}

void
TranspileService::run_request(
    const std::string &key, const std::string &backend_key,
    const QuantumCircuit &circuit, const Backend &backend,
    const TranspileOptions &options,
    const std::shared_ptr<std::promise<SharedTranspileResult>> &promise,
    const std::shared_ptr<EncodedQasm> &qasm, Clock::time_point deadline,
    Clock::time_point submitted, bool dequeue)
{
    obs::StackMetrics &om = obs::StackMetrics::get();
    std::unique_ptr<SynthMemo> memo;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Claimed: this request no longer occupies queue depth.
        if (dequeue)
            --queued_;
        if (free_memos_.empty()) {
            ++stats_.synth_memos;
        } else {
            memo = std::move(free_memos_.back());
            free_memos_.pop_back();
        }
    }
    if (!memo)
        memo = std::make_unique<SynthMemo>();
    const std::uint64_t memo_hits = memo->hits();
    const std::uint64_t memo_misses = memo->misses();
    // Queue wait: accepted at submit() until a worker (or the inline
    // path) picked it up.  Measured across threads, so it cannot be a
    // scoped span — note the already-measured duration.
    const auto queue_wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              submitted)
            .count());
    om.queue_wait_us.observe(queue_wait_us);
    obs::span_note("queue_wait", queue_wait_us);

    SharedTranspileResult result;
    std::exception_ptr error;
    bool missed_deadline = false;
    try {
        obs::TraceSpan span("transpile", &om.transpile_us);
        failpoint::hit("service.transpile");
        // `deadline` was computed at submit time, so queueing delay
        // counts against it; the layout search checks it per trial.
        result = std::make_shared<TranspileResult>(
            transpile(circuit, backend, options, *distances_, backend_key,
                      *memo, deadline));
    } catch (const TranspileDeadlineExceeded &) {
        error = std::current_exception();
        missed_deadline = true;
    } catch (...) {
        error = std::current_exception();
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        // Return the memo before settling: a serial client's next
        // request then leases the memo this one just warmed.
        stats_.synth_memo_hits += memo->hits() - memo_hits;
        stats_.synth_memo_misses += memo->misses() - memo_misses;
        free_memos_.push_back(std::move(memo));
        const auto flight = inflight_.find(key);
        if (result) {
            ++stats_.transpiles_ok;
            // Insert BEFORE dropping the in-flight entry: a concurrent
            // submit always finds the key in one table or the other,
            // never recomputes a result that is already known.  Except
            // degraded results: they are best-effort UNDER THIS
            // REQUEST'S BUDGET, not the key's canonical answer — a
            // later deadline-free request must get the full race.
            if (!result->degraded) {
                obs::TraceSpan insert_span("cache_insert",
                                           &om.cache_insert_us);
                cache_insert(key, result, qasm,
                             std::move(flight->second.request_qasm),
                             options.fingerprint(), backend.name,
                             backend_key);
            }
        } else if (missed_deadline) {
            ++stats_.deadline_exceeded;
            const obs::SharedTracer t = obs::current_tracer();
            obs::EventLog::global().append(obs::format_event(
                "deadline", {{"key", key}, {"trace", t ? t->id() : ""}},
                {{"queue_wait_us", queue_wait_us}}));
        } else {
            ++stats_.transpiles_failed;
        }
        inflight_.erase(flight);
    }

    // Settle outside the lock: waiters wake straight into their copy.
    if (result)
        promise->set_value(std::move(result));
    else
        promise->set_exception(error);

    {
        // Notify UNDER the lock: the destructor may observe the zero
        // count and destroy the condition variable the instant the
        // mutex is released, so the notify must already be done by
        // then (cv-destruction race otherwise, caught by TSan).
        std::lock_guard<std::mutex> lk(mu_);
        --inflight_count_;
        drained_.notify_all();
    }
}

std::string
TranspileService::backend_key_of(
    const std::shared_ptr<const Backend> &backend) const
{
    // The backend's key hashes its whole coupling map and calibration,
    // O(device) on a large backend.  Each object is hashed once: its
    // name's generation record keeps the key, and a request with any
    // other object (a rotation, or an equal copy) hashes here, outside
    // mu_, and admission records the result.
    std::string key = memoized_backend_key(backend);
    if (key.empty())
        key = backend->cache_key();
    return key;
}

std::string
TranspileService::probe_text(const std::string &qasm,
                             const std::string &backend_key,
                             std::uint64_t options_fp) const
{
    std::lock_guard<std::mutex> lk(mu_);
    // TextProbe equality compares the whole text, so a hash collision
    // can never match another request's entry.
    auto it = by_text_.find({qasm, backend_key, options_fp});
    return it == by_text_.end() ? std::string() : it->second->key;
}

TranspileTicket
TranspileService::submit(const QuantumCircuit &circuit,
                         std::shared_ptr<const Backend> backend,
                         const TranspileOptions &options,
                         const RequestPolicy &policy)
{
    if (!backend)
        throw std::invalid_argument("submit: null backend");
    const std::string backend_key = backend_key_of(backend);
    return admit(request_key(circuit, backend_key, options), &circuit, {},
                 std::move(backend), backend_key, options, policy,
                 /*caller_waits=*/false);
}

TranspileTicket
TranspileService::submit_qasm(const std::string &qasm,
                              std::shared_ptr<const Backend> backend,
                              const TranspileOptions &options,
                              const RequestPolicy &policy)
{
    return admit_qasm(qasm, std::move(backend), options, policy,
                      /*caller_waits=*/false);
}

TranspileTicket
TranspileService::call_qasm(const std::string &qasm,
                            std::shared_ptr<const Backend> backend,
                            const TranspileOptions &options,
                            const RequestPolicy &policy)
{
    return admit_qasm(qasm, std::move(backend), options, policy,
                      /*caller_waits=*/true);
}

TranspileTicket
TranspileService::admit_qasm(const std::string &qasm,
                             std::shared_ptr<const Backend> backend,
                             const TranspileOptions &options,
                             const RequestPolicy &policy, bool caller_waits)
{
    if (!backend)
        throw std::invalid_argument("submit: null backend");
    const std::string backend_key = backend_key_of(backend);
    // The same bytes as the request that filled an entry need no
    // parse: its key is known.  The entry may be gone or too old by
    // the time admission looks; then nothing was counted, and the
    // request proceeds as a parsed one.
    std::string key = probe_text(qasm, backend_key, options.fingerprint());
    if (!key.empty()) {
        TranspileTicket hit = admit(std::move(key), nullptr, {}, backend,
                                    backend_key, options, policy,
                                    caller_waits);
        if (hit.valid())
            return hit;
    }
    // The parsed circuit carries the fingerprint, so this request
    // shares keys (and therefore dedup) with object submits.
    const QuantumCircuit circuit = [&] {
        obs::TraceSpan parse("qasm_parse");
        return from_qasm(qasm);
    }();
    return admit(request_key(circuit, backend_key, options), &circuit, qasm,
                 std::move(backend), backend_key, options, policy,
                 caller_waits);
}

TranspileTicket
TranspileService::admit(std::string key, const QuantumCircuit *circuit,
                        const std::string &request_qasm,
                        std::shared_ptr<const Backend> backend,
                        const std::string &backend_key,
                        const TranspileOptions &options,
                        const RequestPolicy &policy, bool caller_waits)
{
    TranspileTicket ticket;
    ticket.key_ = std::move(key);
    ticket.service_ = this;

    // Absolute budget, stamped NOW so queue delay counts against it.
    const Clock::time_point deadline =
        policy.deadline_ms > 0
            ? Clock::now() + std::chrono::milliseconds(policy.deadline_ms)
            : Clock::time_point::max();
    bool inline_run = Scheduler::in_task();
    // Held from admission until the caller's run settles the ticket.
    std::optional<Scheduler::CallerSlot> slot;

    obs::StackMetrics &om = obs::StackMetrics::get();
    const Clock::time_point submitted = Clock::now();
    const double ttl = policy.cache_ttl_seconds > 0.0
                           ? policy.cache_ttl_seconds
                           : options_.default_ttl_seconds;

    auto promise = std::make_shared<std::promise<SharedTranspileResult>>();
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto hit = cache_.find(ticket.key_);
        const bool stale = hit != cache_.end() &&
                           older_than(hit->second->inserted, ttl, submitted);
        if (!circuit && (hit == cache_.end() || stale))
            return TranspileTicket(); // the probe came to nothing
        // Admission covers the whole decision critical section: cache
        // probe, coalesce probe, shed check, in-flight filing.
        obs::TraceSpan admission("admission", &om.admission_us);
        ++stats_.requests;
        // An entry under this key has this backend key, so a rotation
        // swept here never takes `hit` with it.
        note_backend_generation(backend, backend_key);

        if (stale) {
            // Too old for this request: invalid, not a hit.
            cache_erase(hit->second);
            ++stats_.evictions_invalidated;
            hit = cache_.end();
        }
        if (hit != cache_.end()) {
            ++stats_.cache_hits;
            if (!circuit)
                ++stats_.text_hits;
            lru_.splice(lru_.begin(), lru_, hit->second);
            promise->set_value(hit->second->result);
            ticket.qasm_ = hit->second->qasm;
            ticket.source_ = TicketSource::kCacheHit;
            ticket.future_ = promise->get_future().share();
            return ticket;
        }

        auto flight = inflight_.find(ticket.key_);
        if (flight != inflight_.end()) {
            ++stats_.coalesced;
            ++flight->second.waiters;
            ticket.source_ = TicketSource::kCoalesced;
            ticket.future_ = flight->second.future;
            ticket.qasm_ = flight->second.qasm;
            // A coalesced waiter's deadline bounds its WAIT (the joined
            // computation runs under its own request's budget, if any).
            ticket.deadline_ = deadline;
            return ticket;
        }

        // A caller that would only block on this ticket runs the miss
        // itself in a parked worker's place: no queue, no wake-up.
        if (caller_waits && !inline_run) {
            slot.emplace(scheduler());
            inline_run = slot->held();
        }

        // Admission control: a fresh miss past the queue cap is shed
        // NOW with a typed error, not queued into a deadline it cannot
        // make.  Hits/coalesced joins above are never shed (they add no
        // queue depth), nor are inline runs (they occupy the submitting
        // task's or a borrowed place, not the queue).
        if (options_.max_queued != 0 && !inline_run &&
            queued_ >= options_.max_queued) {
            ++stats_.shed;
            const obs::SharedTracer t = obs::current_tracer();
            obs::EventLog::global().append(obs::format_event(
                "shed",
                {{"key", ticket.key_}, {"trace", t ? t->id() : ""}},
                {{"queued", queued_}}));
            throw TranspileOverloaded(
                "transpile service overloaded: " +
                std::to_string(queued_) + " requests queued");
        }

        ++stats_.misses;
        ticket.future_ = promise->get_future().share();
        ticket.qasm_ = std::make_shared<EncodedQasm>();
        Inflight entry;
        entry.future = ticket.future_;
        entry.promise = promise;
        entry.qasm = ticket.qasm_;
        entry.request_qasm = request_qasm;
        inflight_.emplace(ticket.key_, std::move(entry));
        ++inflight_count_;
        if (inline_run)
            ++stats_.caller_runs;
        else
            ++queued_;
    }

    if (inline_run) {
        // A nested submitter (e.g. a task consulting the service) runs
        // inline so a saturated pool cannot deadlock behind its own
        // queue; a blocking caller runs in the place it borrowed.
        // Dedup above still applied.
        ticket.source_ = TicketSource::kInline;
        run_request(ticket.key_, backend_key, *circuit, *backend, options,
                    promise, ticket.qasm_, deadline, submitted,
                    /*dequeue=*/false);
        return ticket;
    }

    ticket.source_ = TicketSource::kScheduled;
    // The task owns copies/shares of everything it touches; `this`
    // stays valid because the destructor drains in-flight requests.
    Scheduler::JobHandle handle = scheduler().submit(
        [this, key = ticket.key_, backend_key, circuit = *circuit,
         backend = std::move(backend), options, promise, qasm = ticket.qasm_,
         deadline, submitted] {
            run_request(key, backend_key, circuit, *backend, options,
                        promise, qasm, deadline, submitted,
                        /*dequeue=*/true);
        },
        policy.priority);
    {
        // Park the handle so try_cancel can reach the job.  The request
        // may already have finished (entry gone) or, pathologically,
        // finished AND been resubmitted (entry bound to a new promise);
        // only bind the handle to ITS OWN entry.
        std::lock_guard<std::mutex> lk(mu_);
        auto it = inflight_.find(ticket.key_);
        if (it != inflight_.end() && it->second.promise == promise)
            it->second.handle = handle;
    }
    return ticket;
}

bool
TranspileService::try_cancel(const TranspileTicket &ticket)
{
    if (!ticket.valid() || ticket.source() != TicketSource::kScheduled)
        return false;

    std::shared_ptr<std::promise<SharedTranspileResult>> promise;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = inflight_.find(ticket.key());
        if (it == inflight_.end())
            return false; // already finished
        Inflight &flight = it->second;
        if (flight.waiters != 1)
            return false; // coalesced waiters still want the result
        if (!flight.handle.valid())
            return false; // inline run, or handle not parked yet
        // cancel() is true when the task was dropped before any worker
        // claimed it; false means it is running or done — too late.
        // (Lock order mu_ -> scheduler mutex; nothing takes the
        // reverse: tasks run with the scheduler mutex released.)
        if (!flight.handle.cancel())
            return false;
        promise = flight.promise;
        inflight_.erase(it);
        ++stats_.cancelled;
        // The dropped task never runs, so its run_request dequeue
        // never happens — release the queue slot here.
        --queued_;
    }

    // Settle outside the lock, like run_request.
    promise->set_exception(std::make_exception_ptr(TranspileCancelled()));
    {
        std::lock_guard<std::mutex> lk(mu_);
        --inflight_count_;
        drained_.notify_all();
    }
    return true;
}

std::size_t
TranspileService::invalidate_backend(const std::string &backend_name)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Forget which object the key was hashed from: the next request
    // hashes its backend afresh.
    auto gen = generation_.find(backend_name);
    if (gen != generation_.end())
        gen->second.source.reset();
    std::size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->backend_name == backend_name) {
            it = cache_erase(it);
            ++stats_.evictions_invalidated;
            ++dropped;
        } else {
            ++it;
        }
    }
    return dropped;
}

std::size_t
TranspileService::purge_expired()
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (older_than(it->inserted, options_.default_ttl_seconds, now)) {
            it = cache_erase(it);
            ++stats_.evictions_invalidated;
            ++dropped;
        } else {
            ++it;
        }
    }
    return dropped;
}

ServiceStats
TranspileService::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats out = stats_;
    out.cache_size = lru_.size();
    out.cache_bytes = cache_bytes_;
    out.inflight = inflight_.size();
    return out;
}

void
TranspileService::clear_cache()
{
    std::lock_guard<std::mutex> lk(mu_);
    by_text_.clear();
    lru_.clear();
    cache_.clear();
    cache_bytes_ = 0;
}

} // namespace nassc
