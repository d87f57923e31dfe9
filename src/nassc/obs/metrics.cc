#include "nassc/obs/metrics.h"

#include <limits>
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
append_header(std::string &out, const std::string &name,
              const std::string &help, const char *type)
{
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
}

/** The one writer of an unlabeled metric: header plus its sample. */
void
append_scalar(std::string &out, const std::string &name,
              const std::string &help, const char *type,
              const std::string &value)
{
    append_header(out, name, help, type);
    out += name;
    out += ' ';
    out += value;
    out += '\n';
}

/** Strict decimal-integer parse of a sample value: digits only (no
 *  sign, whitespace or trailing junk) and the value must fit uint64.
 *  strtoull and an unchecked `v * 10 + d` are both too permissive
 *  ("12abc" parses; a 21-digit value silently wraps). */
bool
parse_u64(const std::string &text, std::uint64_t &value)
{
    if (text.empty())
        return false;
    value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    return true;
}

/** Call `fn(line)` for each non-empty line of a text body. */
template <typename Fn>
void
for_each_line(const std::string &body, Fn fn)
{
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        if (eol > pos)
            fn(body.substr(pos, eol - pos));
        pos = eol + 1;
    }
}

} // namespace

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
    append_scalar(out, name_, help_, type_, std::to_string(value()));
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
    append_header(out, name_, help_, type_);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kFiniteBuckets; ++i) {
        cumulative += snap.buckets[static_cast<std::size_t>(i)];
        out += name_;
        out += "_bucket{le=\"";
        out += std::to_string(bucket_bound(i));
        out += "\"} ";
        out += std::to_string(cumulative);
        out += '\n';
    }
    out += name_;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(snap.count);
    out += '\n';
    out += name_;
    out += "_sum ";
    out += std::to_string(snap.sum);
    out += '\n';
    out += name_;
    out += "_count ";
    out += std::to_string(snap.count);
    out += '\n';
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
render_row(std::string &out, const char *type, const std::string &row,
           const std::string &help, std::uint64_t value)
{
    const bool counter = std::string(type) == "counter";
    append_scalar(out, "nassc_" + row + (counter ? "_total" : ""), help, type,
                  std::to_string(value));
}

std::map<std::string, std::uint64_t>
stats_from_metrics(const std::string &body)
{
    std::unordered_map<std::string, std::string> types; // from # TYPE
    std::map<std::string, std::uint64_t> rows;
    for_each_line(body, [&](const std::string &line) {
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            return;
        if (line.rfind("# TYPE ", 0) == 0) {
            types[line.substr(7, sp - 7)] = line.substr(sp + 1);
            return;
        }
        // Only a counter or gauge sample is named exactly as its TYPE
        // line; labeled samples and histogram _sum/_count lines are not.
        std::string name = line.substr(0, sp);
        const auto type = types.find(name);
        std::uint64_t value = 0;
        if (type == types.end() || name.rfind("nassc_", 0) != 0 ||
            (type->second != "counter" && type->second != "gauge") ||
            !parse_u64(line.substr(sp + 1), value))
            return;
        if (type->second == "counter" && name.size() > 6 &&
            name.compare(name.size() - 6, 6, "_total") == 0)
            name.resize(name.size() - 6);
        rows[name.substr(6)] = value;
    });
    return rows;
}

StackMetrics::StackMetrics(MetricsRegistry &reg)
    : slow_requests_total(
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
