#ifndef NASSC_OBS_TRACE_H
#define NASSC_OBS_TRACE_H

/**
 * @file
 * Per-request tracing: where did this request's latency go?
 *
 * A `Tracer` collects named spans (stage, microseconds) for one
 * request.  nasscd mints one at protocol decode when the client sent
 * `option trace=1`; `TranspileService` and the
 * `Scheduler` propagate it to whatever thread ends up doing the work
 * via `TraceScope` and the Job seam, so span sites deep in the router
 * never take a tracer parameter — they ask the thread.
 *
 * The cost contract mirrors `service/failpoint.h`: when NO tracer is
 * live anywhere in the process, every span site costs exactly one
 * relaxed atomic load (`detail::g_live_tracers`) — no clock read, no
 * lock, no allocation.  `TraceSpan` sites that also feed a histogram
 * always read the clock (metrics are always on; the observe is one
 * relaxed fetch_add), but only touch the tracer when one is armed.
 *
 * Spans record timing into side buffers only — they never influence
 * a routing decision — so transpiled output is bit-identical with
 * tracing on or off (pinned by test_obs on the golden circuits).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "nassc/obs/metrics.h"

namespace nassc {
namespace obs {

class Tracer;
using SharedTracer = std::shared_ptr<Tracer>;

namespace detail {

/** Count of live Tracer objects process-wide; the single relaxed load
 *  every span site pays when tracing is off (failpoint pattern). */
extern std::atomic<int> g_live_tracers;

/** The calling thread's installed tracer slot. */
SharedTracer &tls_slot();

} // namespace detail

/** True when any request in the process is being traced. */
inline bool
tracing_armed()
{
    return detail::g_live_tracers.load(std::memory_order_relaxed) != 0;
}

/** One request's span collector.  `record` is thread-safe (layout
 *  trials report from race helper tasks concurrently) and never
 *  throws — spans are recorded from noexcept cleanup paths. */
class Tracer
{
  public:
    explicit Tracer(std::string id);
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    const std::string &id() const { return id_; }

    /** Append a completed span.  Allocation failure is swallowed: a
     *  lost span must never fail the request it describes. */
    void record(const char *name, std::uint64_t us) noexcept;

    std::vector<std::pair<std::string, std::uint64_t>> spans() const;

    /** TraceSpans currently open against this tracer (leak tests:
     *  must drop to 0 after unwinding a failpoint throw). */
    int open_spans() const { return open_.load(std::memory_order_acquire); }

  private:
    friend class TraceSpan;
    void span_opened() { open_.fetch_add(1, std::memory_order_acq_rel); }
    void span_closed() { open_.fetch_sub(1, std::memory_order_acq_rel); }

    std::string id_;
    mutable std::mutex mu_;
    std::vector<std::pair<std::string, std::uint64_t>> spans_;
    std::atomic<int> open_{0};
};

/** Mint a fresh 16-hex-digit trace id (unique per process lifetime,
 *  salted by pid so ids from successive daemon processes don't
 *  collide). */
std::string mint_trace_id();

/** The tracer installed on the calling thread, or null.  One relaxed
 *  load when tracing is off anywhere. */
inline SharedTracer
current_tracer()
{
    if (!tracing_armed())
        return nullptr;
    return detail::tls_slot();
}

/**
 * Install a tracer on the calling thread for a scope; restores the
 * previous one (usually null) on destruction.  A scheduler worker
 * wraps each task in one of these carrying the tracer that was current
 * at submit(), which is how spans recorded inside a layout race's
 * helper tasks land on the right request.
 */
class TraceScope
{
  public:
    explicit TraceScope(SharedTracer t)
        : prev_(std::exchange(detail::tls_slot(), std::move(t)))
    {
    }
    ~TraceScope() { detail::tls_slot() = std::move(prev_); }
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    SharedTracer prev_;
};

/**
 * RAII span site.  Two flavors:
 *
 *  - `TraceSpan(name)`: pure trace site.  Unarmed cost is ONE relaxed
 *    load — no clock read.  This is the flavor the armed-vs-unarmed
 *    micro-benchmark pins.
 *  - `TraceSpan(name, &hist)`: metrics-backed site.  Always times and
 *    observes into the histogram (one relaxed fetch_add pair); the
 *    tracer is consulted only when armed.
 *
 * The destructor records even when unwinding an exception, so spans
 * close (and `open_spans()` returns to 0) under failpoint-injected
 * throws and deadline expiry.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name, Histogram *hist = nullptr)
    {
        if (hist == nullptr && !tracing_armed())
            return; // the one-relaxed-load fast path
        name_ = name;
        hist_ = hist;
        if (tracing_armed()) {
            tracer_ = detail::tls_slot();
            if (tracer_)
                tracer_->span_opened();
        }
        armed_ = true;
        start_ = std::chrono::steady_clock::now();
    }

    ~TraceSpan()
    {
        if (!armed_)
            return;
        const auto us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
        if (hist_ != nullptr)
            hist_->observe(us);
        if (tracer_) {
            tracer_->record(name_, us);
            tracer_->span_closed();
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_ = nullptr;
    Histogram *hist_ = nullptr;
    SharedTracer tracer_;
    bool armed_ = false;
    std::chrono::steady_clock::time_point start_;
};

/** Record an already-measured duration as a span on the current
 *  thread's tracer (queue-wait is measured across threads, so it
 *  can't be a scoped object).  One relaxed load when unarmed. */
inline void
span_note(const char *name, std::uint64_t us)
{
    if (!tracing_armed())
        return;
    if (const SharedTracer &t = detail::tls_slot())
        t->record(name, us);
}

} // namespace obs
} // namespace nassc

#endif // NASSC_OBS_TRACE_H
