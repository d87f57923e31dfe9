#include "nassc/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace nassc {
namespace obs {

namespace detail {

int
stripe()
{
    // Round-robin threads onto stripes at first use; the mask keeps
    // the id valid however many threads the process ever creates.
    static std::atomic<unsigned> next{0};
    thread_local int id =
        static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) &
                         static_cast<unsigned>(kStripes - 1));
    return id;
}

} // namespace detail

namespace {

void
append_u64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

void
append_i64(std::string &out, std::int64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    out += buf;
}

} // namespace

void
Metric::header(std::string &out) const
{
    out += "# HELP ";
    out += name_;
    out += ' ';
    out += help_;
    out += "\n# TYPE ";
    out += name_;
    out += ' ';
    out += type_;
    out += '\n';
}

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const Cell &c : cells_)
        total += c.v.load(std::memory_order_relaxed);
    return total;
}

void
Counter::render(std::string &out) const
{
    header(out);
    out += name_;
    out += ' ';
    append_u64(out, value());
    out += '\n';
}

void
Counter::reset()
{
    for (Cell &c : cells_)
        c.v.store(0, std::memory_order_relaxed);
}

void
Gauge::render(std::string &out) const
{
    header(out);
    out += name_;
    out += ' ';
    append_i64(out, value());
    out += '\n';
}

void
Gauge::reset()
{
    v_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    for (const Stripe &s : stripes_) {
        for (int i = 0; i < kHistogramBuckets; ++i)
            snap.buckets[static_cast<std::size_t>(i)] +=
                s.buckets[static_cast<std::size_t>(i)].load(
                    std::memory_order_relaxed);
        snap.sum += s.sum.load(std::memory_order_relaxed);
    }
    for (std::uint64_t b : snap.buckets)
        snap.count += b;
    return snap;
}

void
Histogram::render(std::string &out) const
{
    const HistogramSnapshot snap = snapshot();
    header(out);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kFiniteBuckets; ++i) {
        cumulative += snap.buckets[static_cast<std::size_t>(i)];
        out += name_;
        out += "_bucket{le=\"";
        append_u64(out, bucket_bound(i));
        out += "\"} ";
        append_u64(out, cumulative);
        out += '\n';
    }
    out += name_;
    out += "_bucket{le=\"+Inf\"} ";
    append_u64(out, snap.count);
    out += '\n';
    out += name_;
    out += "_sum ";
    append_u64(out, snap.sum);
    out += '\n';
    out += name_;
    out += "_count ";
    append_u64(out, snap.count);
    out += '\n';
}

void
Histogram::reset()
{
    for (Stripe &s : stripes_) {
        for (auto &b : s.buckets)
            b.store(0, std::memory_order_relaxed);
        s.sum.store(0, std::memory_order_relaxed);
    }
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *reg = new MetricsRegistry(); // leaked: outlives
                                                         // exiting threads
    return *reg;
}

Metric &
MetricsRegistry::find_or_create(const std::string &name,
                                const std::string &help, const char *type)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) {
        if (std::string(it->second->type()) != type)
            throw std::logic_error("metric '" + name +
                                   "' already registered as " +
                                   it->second->type());
        return *it->second;
    }
    std::unique_ptr<Metric> m;
    if (std::string(type) == "counter")
        m.reset(new Counter(name, help));
    else if (std::string(type) == "gauge")
        m.reset(new Gauge(name, help));
    else
        m.reset(new Histogram(name, help));
    Metric &ref = *m;
    metrics_.push_back(std::move(m));
    index_.emplace(name, &ref);
    return ref;
}

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help)
{
    return static_cast<Counter &>(find_or_create(name, help, "counter"));
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    return static_cast<Gauge &>(find_or_create(name, help, "gauge"));
}

Histogram &
MetricsRegistry::histogram(const std::string &name, const std::string &help)
{
    return static_cast<Histogram &>(find_or_create(name, help, "histogram"));
}

std::string
MetricsRegistry::render() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto &m : metrics_)
        m->render(out);
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &m : metrics_)
        m->reset();
}

std::string
merge_prometheus(const std::vector<std::string> &bodies)
{
    struct Entry
    {
        std::string line;        ///< comment or non-numeric passthrough
        std::string key;         ///< sample key (name + labels)
        std::uint64_t value = 0; ///< summed sample value
        bool is_sample = false;
    };
    std::vector<Entry> order;
    std::unordered_map<std::string, std::size_t> by_key; // samples only
    std::unordered_map<std::string, bool> seen_comment;

    for (const std::string &body : bodies) {
        std::size_t pos = 0;
        while (pos < body.size()) {
            std::size_t eol = body.find('\n', pos);
            if (eol == std::string::npos)
                eol = body.size();
            const std::string line = body.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.empty())
                continue;
            if (line[0] == '#') {
                if (!seen_comment.emplace(line, true).second)
                    continue;
                Entry e;
                e.line = line;
                order.push_back(std::move(e));
                continue;
            }
            // Sample line: "<key> <value>".  Values are unsigned
            // integers by construction (counts, bucket counts, sums of
            // microseconds); anything else passes through once.
            const std::size_t sp = line.rfind(' ');
            bool numeric = sp != std::string::npos && sp + 1 < line.size();
            std::uint64_t value = 0;
            if (numeric) {
                for (std::size_t i = sp + 1; i < line.size(); ++i) {
                    const char c = line[i];
                    if (c < '0' || c > '9') {
                        numeric = false;
                        break;
                    }
                    value = value * 10 + static_cast<std::uint64_t>(c - '0');
                }
            }
            if (!numeric) {
                if (!seen_comment.emplace(line, true).second)
                    continue;
                Entry e;
                e.line = line;
                order.push_back(std::move(e));
                continue;
            }
            const std::string key = line.substr(0, sp);
            auto it = by_key.find(key);
            if (it != by_key.end()) {
                order[it->second].value += value;
            } else {
                Entry e;
                e.key = key;
                e.value = value;
                e.is_sample = true;
                by_key.emplace(key, order.size());
                order.push_back(std::move(e));
            }
        }
    }

    std::string out;
    for (const Entry &e : order) {
        if (e.is_sample) {
            out += e.key;
            out += ' ';
            append_u64(out, e.value);
        } else {
            out += e.line;
        }
        out += '\n';
    }
    return out;
}

StackMetrics::StackMetrics(MetricsRegistry &reg)
    : requests_total(reg.counter("nassc_requests_total",
                                 "Transpile requests admitted to submit()")),
      cache_hits_total(
          reg.counter("nassc_cache_hits_total", "Result-cache hits")),
      coalesced_total(reg.counter("nassc_coalesced_total",
                                  "Requests coalesced onto in-flight work")),
      shed_total(reg.counter("nassc_shed_total",
                             "Requests shed by admission control")),
      deadline_exceeded_total(
          reg.counter("nassc_deadline_exceeded_total",
                      "Requests settled past their deadline")),
      transpiles_ok_total(
          reg.counter("nassc_transpiles_ok_total", "Transpiles completed")),
      transpiles_failed_total(
          reg.counter("nassc_transpiles_failed_total", "Transpiles failed")),
      slow_requests_total(
          reg.counter("nassc_slow_requests_total",
                      "Requests over the slow-request threshold")),
      decode_us(reg.histogram("nassc_decode_us",
                              "Wire payload to ServeRequest decode")),
      admission_us(reg.histogram("nassc_admission_us",
                                 "TranspileService::submit critical section")),
      queue_wait_us(reg.histogram("nassc_queue_wait_us",
                                  "submit() to scheduler worker claim")),
      distance_resolve_us(reg.histogram("nassc_distance_resolve_us",
                                        "Distance provider resolution")),
      layout_us(reg.histogram("nassc_layout_us", "Layout search window")),
      layout_trial_us(
          reg.histogram("nassc_layout_trial_us", "One layout trial")),
      routing_us(reg.histogram("nassc_routing_us", "Routing step")),
      cache_insert_us(
          reg.histogram("nassc_cache_insert_us", "Result-cache insert")),
      transpile_us(
          reg.histogram("nassc_transpile_us", "Whole transpile() pipeline")),
      request_us(reg.histogram("nassc_request_us",
                               "Server-side request wall time"))
{
}

StackMetrics &
StackMetrics::get()
{
    static StackMetrics *m = new StackMetrics(MetricsRegistry::global());
    return *m;
}

} // namespace obs
} // namespace nassc
