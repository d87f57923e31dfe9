#ifndef NASSC_OBS_METRICS_H
#define NASSC_OBS_METRICS_H

/**
 * @file
 * Counters and fixed-bucket histograms for the serving stack, and the
 * Prometheus text exposition every `metrics` body is written and read
 * in.  Gauges exist only as stat rows (render_row()).
 *
 * Design constraints, in order:
 *
 *  1. Hot-path recording must be lock-free and allocation-free: inc()
 *     and observe() are relaxed atomic adds into per-thread stripes
 *     (16 cache-line-padded cells, thread -> stripe round-robin), so
 *     concurrent connection threads and scheduler workers never
 *     contend on one counter word.  Reads sum the stripes — metrics
 *     reads are scrapes, not hot paths.
 *  2. Histogram bucket bounds are FIXED and log2-scaled — every
 *     histogram in the process shares kBucketBounds (1us, 2us, 4us, …,
 *     2^25us ≈ 33.5s, +Inf).
 *  3. Exposure is Prometheus text exposition (render()): `# TYPE`
 *     headers, cumulative `_bucket{le="N"}` samples, `_sum`/`_count`.
 *
 * The registry holds only what has no other owner (latency histograms,
 * slow requests).  Service and router counts live once, in their
 * owners, and are rendered at scrape time as stat rows (render_row());
 * stats_from_metrics() reads those rows back.
 *
 * MetricsRegistry::global() is the process-wide registry every
 * built-in instrument (StackMetrics) lives in; local registries are
 * constructible for tests.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace nassc {
namespace obs {

/** Per-thread stripe fan-out of every counter/histogram cell. */
inline constexpr int kStripes = 16;

/** Finite histogram bucket bounds (inclusive upper edges), in
 *  microseconds: 2^0 .. 2^25.  Index kFiniteBuckets is +Inf. */
inline constexpr int kFiniteBuckets = 26;
inline constexpr int kHistogramBuckets = kFiniteBuckets + 1;

/** The shared upper edge of finite bucket `i` (2^i us). */
constexpr std::uint64_t
bucket_bound(int i)
{
    return std::uint64_t{1} << i;
}

namespace detail {
/** This thread's stripe id in [0, kStripes). */
int stripe();
} // namespace detail

/** Base of every registered metric; named and typed. */
class Metric
{
  public:
    virtual ~Metric() = default;
    const std::string &name() const { return name_; }
    const char *type() const { return type_; }
    /** Append this metric's exposition block (TYPE header + samples). */
    virtual void render(std::string &out) const = 0;

  protected:
    Metric(std::string name, std::string help, const char *type)
        : name_(std::move(name)), help_(std::move(help)), type_(type)
    {
    }

    std::string name_;
    std::string help_;
    const char *type_;
};

/** Monotonic counter; inc() is one relaxed fetch_add on a stripe. */
class Counter : public Metric
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        cells_[static_cast<std::size_t>(detail::stripe())].v.fetch_add(
            n, std::memory_order_relaxed);
    }
    std::uint64_t value() const;

    void render(std::string &out) const override;

  private:
    friend class MetricsRegistry;
    Counter(std::string name, std::string help)
        : Metric(std::move(name), std::move(help), "counter")
    {
    }
    struct alignas(64) Cell
    {
        std::atomic<std::uint64_t> v{0};
    };
    std::array<Cell, kStripes> cells_;
};

/** One histogram's consistent read: per-bucket (NON-cumulative)
 *  counts, total count, and value sum. */
struct HistogramSnapshot
{
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

/** Fixed log2-bucket latency histogram (microseconds). */
class Histogram : public Metric
{
  public:
    void
    observe(std::uint64_t us)
    {
        // ceil(log2(us)) clamps into [0, kFiniteBuckets]: us in
        // (2^(k-1), 2^k] lands in finite bucket k, anything past the
        // last edge in the +Inf bucket.  __builtin_clzll is fine here:
        // the tree builds with gcc and clang only (see CMakeLists.txt).
        int k = us <= 1
                    ? 0
                    : 64 - __builtin_clzll(us - 1);
        if (k > kFiniteBuckets - 1)
            k = kFiniteBuckets; // +Inf
        Stripe &s = stripes_[static_cast<std::size_t>(detail::stripe())];
        s.buckets[static_cast<std::size_t>(k)].fetch_add(
            1, std::memory_order_relaxed);
        s.sum.fetch_add(us, std::memory_order_relaxed);
    }

    HistogramSnapshot snapshot() const;

    void render(std::string &out) const override;

  private:
    friend class MetricsRegistry;
    Histogram(std::string name, std::string help)
        : Metric(std::move(name), std::move(help), "histogram")
    {
    }
    struct alignas(64) Stripe
    {
        std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
        std::atomic<std::uint64_t> sum{0};
    };
    std::array<Stripe, kStripes> stripes_;
};

/**
 * Find-or-create registry of named metrics.  Registration takes a
 * mutex (cold path — every call site caches the returned reference);
 * recording on the returned objects never does.  render() emits the
 * full Prometheus text exposition in registration order.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry (what the `metrics` verb renders). */
    static MetricsRegistry &global();

    /** @throws std::logic_error when `name` exists with another type. */
    Counter &counter(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name, const std::string &help);

    /** Prometheus text exposition of every registered metric. */
    std::string render() const;

  private:
    Metric &find_or_create(const std::string &name, const std::string &help,
                           const char *type);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Metric>> metrics_; ///< registration order
    std::unordered_map<std::string, Metric *> index_;
};

/**
 * Append one stat row as an unlabeled Prometheus metric: a "counter"
 * row `x` is named `nassc_x_total`, a "gauge" row `nassc_x`.  Rows and
 * registry Counters render through the same sample writer, so the
 * exposition format has one writer.
 */
void render_row(std::string &out, const char *type, const std::string &row,
                const std::string &help, std::uint64_t value);

/**
 * The stat-row view of a `metrics` body: every unlabeled counter or
 * gauge sample `nassc_<x>[_total]` becomes row `<x>`.  Histogram lines
 * are skipped, and so are samples whose value is not a decimal integer
 * that fits uint64 (a negative gauge, a passthrough line) — one odd
 * row must not fail the whole read.
 */
std::map<std::string, std::uint64_t>
stats_from_metrics(const std::string &body);

/**
 * The stack's built-in instruments, registered in the global registry
 * on first use.  One relaxed-atomic recording site each; see
 * obs/trace.h for the span sites that feed the histograms.
 */
struct StackMetrics
{
    Counter &slow_requests_total;      ///< over EventLog's slow threshold
    Histogram &decode_us;              ///< wire payload -> ServeRequest
    Histogram &admission_us;           ///< submit() critical section
    Histogram &queue_wait_us;          ///< submit -> worker claim
    Histogram &distance_resolve_us;    ///< DistanceCache::provider
    Histogram &layout_us;              ///< whole layout search window
    Histogram &layout_trial_us;        ///< one layout trial
    Histogram &routing_us;             ///< post-search routing step
    Histogram &cache_insert_us;        ///< result-cache insert
    Histogram &transpile_us;           ///< whole transpile() pipeline
    Histogram &request_us;             ///< server-side request total

    static StackMetrics &get();

  private:
    explicit StackMetrics(MetricsRegistry &reg);
};

} // namespace obs
} // namespace nassc

#endif // NASSC_OBS_METRICS_H
