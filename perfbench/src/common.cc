#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "bench.h"
#include "nassc/ir/fnv1a.h"
#include "nassc/ir/qasm.h"
#include "nassc/sim/verify.h"

namespace pb {

using namespace nassc;

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------------ report

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::print_table() const
{
    for (const Metric &m : metrics_)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
Report::json(bool correct, long attempted, long failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

void
Outcome::fail(const std::string &what)
{
    ++failed;
    if (failed <= 20)
        std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
}

// ------------------------------------------------------------ exact counts

void
ExactCounts::record(const std::string &name, long long value, Outcome &out)
{
    auto [it, fresh] = values_.emplace(name, value);
    if (!fresh && it->second != value)
        out.fail("nondeterminism: " + name + " was " +
                 std::to_string(it->second) + ", now " +
                 std::to_string(value));
}

namespace {

/** FNV-1a of this executable: runs of different builds never compare. */
std::uint64_t
build_fingerprint()
{
    std::ifstream f("/proc/self/exe", std::ios::binary);
    Fnv1a fp;
    std::vector<char> buf(1 << 16);
    while (f.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           f.gcount() > 0)
        for (std::streamsize i = 0; i < f.gcount(); ++i)
            fp.byte(static_cast<unsigned char>(buf[i]));
    return fp.value();
}

} // namespace

void
ExactCounts::check_against_previous(const std::string &dir, const Args &args,
                                    Outcome &out) const
{
    char name[160];
    std::snprintf(name, sizeof(name), "/exact-%s-s%llu-t%d-%016llx.txt",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed),
                  args.trace ? 1 : 0,
                  static_cast<unsigned long long>(build_fingerprint()));
    const std::string path = dir + name;
    std::ifstream prev(path);
    std::string key;
    long long value = 0;
    while (prev >> key >> value) {
        auto it = values_.find(key);
        if (it != values_.end() && it->second != value)
            out.fail("nondeterminism across runs: " + key + " was " +
                     std::to_string(value) + ", now " +
                     std::to_string(it->second));
    }
    std::ofstream next(path, std::ios::trunc);
    for (const auto &kv : values_)
        next << kv.first << " " << kv.second << "\n";
}

// ------------------------------------------------------------ compile lists

namespace {

const char *
router_name(RoutingAlgorithm r)
{
    return r == RoutingAlgorithm::kSabre ? "sabre" : "nassc";
}

/** Both routers on one circuit, sharing its layout seed (Table I's
 *  pairing: the routers differ, the initial-layout draw does not). */
void
add_pair(CompileList &list, const std::string &name, QuantumCircuit circuit,
         unsigned layout_seed)
{
    const int base_cx = TranspileContext::global()
                            .optimize_only(circuit)
                            .cx_total;
    for (RoutingAlgorithm r :
         {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
        CompileItem item;
        item.name = name + "/" + router_name(r);
        item.circuit = circuit;
        item.options.router = r;
        item.options.seed = layout_seed;
        item.base_cx = base_cx;
        list.items.push_back(std::move(item));
    }
}

} // namespace

CompileList
build_compile_list(const std::string &workload, std::uint64_t seed)
{
    CompileList list;
    auto layout_seed = [seed](std::uint64_t i) {
        return static_cast<unsigned>(mix_seed(seed, i) & 0x7fffffffu);
    };
    if (workload == "table1_compile") {
        list.backend = std::make_shared<const Backend>(montreal_backend());
        std::uint64_t i = 0;
        for (BenchmarkCase &bc : table_benchmarks())
            add_pair(list, bc.name, std::move(bc.circuit), layout_seed(i++));
    } else if (workload == "heavyhex_route") {
        // Two layout draws per circuit: on 4243 qubits one random
        // initial layout moves a circuit's cost by ~20%, and the second
        // draw halves that seed-to-seed variance.
        list.backend = std::make_shared<const Backend>(heavy_hex_backend(41));
        const QuantumCircuit qaoa = qaoa_maxcut(
            40, 2, static_cast<unsigned>(mix_seed(seed, 99)));
        std::uint64_t i = 0;
        for (int draw = 0; draw < 2; ++draw) {
            add_pair(list, "qft_16", qft(16), layout_seed(i++));
            add_pair(list, "qft_30", qft(30), layout_seed(i++));
            add_pair(list, "ghz_24", ghz(24), layout_seed(i++));
            add_pair(list, "qaoa_maxcut_40", qaoa, layout_seed(i++));
        }
    } else if (workload == "wire_mix") {
        // The hot set: mid-size Table I circuits, both routers, at the
        // fixed layout seed 0 — the workload seed drives only the
        // request stream, so the cached answers are the same every run.
        list.backend = std::make_shared<const Backend>(montreal_backend());
        for (const char *name : {"qft_n15", "vqe_n8", "qpe_n9", "adder_n10"})
            add_pair(list, name, benchmark_by_name(name), 0);
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return list;
}

ListTotals
list_totals(const CompileList &list, const std::vector<TranspileResult> &res)
{
    ListTotals t;
    double log_sum = 0.0;
    int pairs = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        t.cx_total += res[i].cx_total;
        t.depth_total += res[i].depth;
    }
    // Items come in (sabre, nassc) pairs; CNOT_add = CNOT_total - the
    // optimize_only() baseline, geomean of the NASSC/SABRE ratio.
    for (std::size_t i = 0; i + 1 < res.size(); i += 2) {
        const double sabre_add = res[i].cx_total - list.items[i].base_cx;
        const double nassc_add =
            res[i + 1].cx_total - list.items[i + 1].base_cx;
        if (sabre_add <= 0.0 || nassc_add <= 0.0)
            continue;
        log_sum += std::log(nassc_add / sabre_add);
        ++pairs;
    }
    t.cx_add_ratio = pairs ? std::exp(log_sum / pairs) : 0.0;
    return t;
}

namespace {

std::vector<double>
all_samples(const Segments &segments)
{
    std::vector<double> all;
    for (const std::vector<double> &s : segments)
        all.insert(all.end(), s.begin(), s.end());
    return all;
}

/** Interquartile mean: the mean of the samples ranked in the middle
 *  half (0 when empty). */
double
interquartile_mean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t lo = v.size() / 4;
    const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
    return mean(std::vector<double>(v.begin() + static_cast<long>(lo),
                                    v.begin() + static_cast<long>(hi)));
}

double
segments_quantile(const Segments &segments, double q)
{
    std::vector<double> per_segment;
    for (const std::vector<double> &s : segments)
        if (!s.empty())
            per_segment.push_back(quantile(s, q));
    return median(std::move(per_segment));
}

} // namespace

void
emit_end_to_end(const std::vector<double> &setup_s, double compile_s,
                const ListTotals &totals, double peak_rss_mb,
                const Segments &hit_us, const Segments &miss_us, Report &r)
{
    std::printf("setup seconds:");
    for (double s : setup_s)
        std::printf(" %.4f", s);
    std::printf("\n");
    std::printf("geomean dCNOT_add (NASSC vs SABRE): %.2f%%\n",
                100.0 * (1.0 - totals.cx_add_ratio));
    r.add("setup_s", median(setup_s), "s");
    r.add("compile_s", compile_s, "s");
    r.add("cx_total", static_cast<double>(totals.cx_total), "count");
    r.add("depth_total", static_cast<double>(totals.depth_total), "count");
    r.add("cx_add_ratio", totals.cx_add_ratio, "ratio");
    r.add("peak_rss_mb", peak_rss_mb, "MB");
    // The gated latency is the interquartile mean.  On a shared host the
    // speed flips between two levels every few seconds, so a percentile
    // jumps from one level to the other as the share of slow time
    // crosses it; a mean of the middle half moves with that share
    // instead, and VM stalls fall outside it.  Percentiles are printed
    // for reference only.
    std::printf("percentiles (not gated): hits p50 %.1f p90 %.1f p99 %.1f "
                "us; misses p50 %.1f p90 %.1f p99 %.1f us\n",
                median(all_samples(hit_us)), segments_quantile(hit_us, 0.9),
                segments_quantile(hit_us, 0.99), median(all_samples(miss_us)),
                segments_quantile(miss_us, 0.9),
                segments_quantile(miss_us, 0.99));
    r.add("hit_iqm_us", interquartile_mean(all_samples(hit_us)), "us");
    r.add("miss_iqm_us", interquartile_mean(all_samples(miss_us)), "us");
}

// ------------------------------------------------------------ output checks

void
check_output(const std::string &what, const QuantumCircuit &logical,
             const TranspileResult &result, const CouplingMap &coupling,
             Outcome &out)
{
    std::set<int> active(result.initial_l2p.begin(), result.initial_l2p.end());
    active.insert(result.final_l2p.begin(), result.final_l2p.end());
    for (const Gate &g : result.circuit.gates()) {
        for (int q : g.qubits)
            active.insert(q);
        switch (g.kind) {
        case OpKind::kRZ:
        case OpKind::kSX:
        case OpKind::kX:
        case OpKind::kMeasure:
        case OpKind::kBarrier:
            break;
        case OpKind::kCX:
            if (!coupling.connected(g.qubits[0], g.qubits[1])) {
                out.fail(what + ": cx " + g.to_string() +
                         " is not on a coupling edge");
                return;
            }
            break;
        default:
            out.fail(what + ": gate " + g.to_string() +
                     " is outside {rz, sx, x, cx}");
            return;
        }
    }
    if (active.size() > 20 ||
        std::ldexp(static_cast<double>(result.circuit.size()),
                   static_cast<int>(active.size())) > 0x1p23)
        return;
    try {
        if (!verify_transpilation(logical, result))
            out.fail(what + ": state-vector check failed");
    } catch (const std::exception &e) {
        out.fail(what + ": state-vector check threw: " + e.what());
    }
}

double
self_peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ layer helpers

void
emit_serve_split(const ServeSplit &s, Report &r)
{
    // Means, not medians: spans are whole microseconds, and a layer's
    // mean times its request count is its busy time.
    r.add("serve.decode_us", mean(s.decode_us), "us");
    r.add("serve.unattributed_us", mean(s.unattributed_us), "us");
    r.add("serve.queue_wait_us", mean(s.queue_wait_us), "us");
    r.add("serve.transpile_us", mean(s.transpile_us), "us");
    r.add("serve.ping_us", mean(s.ping_us), "us");
    r.add("service.hit_ratio", s.hit_ratio, "ratio");
    r.add("service.transpiles", static_cast<double>(s.transpiles), "count");
    r.add("service.coalesced", static_cast<double>(s.coalesced), "count");
}

void
emit_qasm_costs(const std::vector<TranspileResult> &results, Report &r,
                Outcome &out)
{
    std::vector<double> encode_us, parse_us;
    for (int rep = 0; rep < 5; ++rep) {
        double enc = 0.0, parse = 0.0;
        for (const TranspileResult &res : results) {
            auto t0 = Clock::now();
            const std::string text = to_qasm(res.circuit);
            auto t1 = Clock::now();
            const QuantumCircuit back = from_qasm(text);
            auto t2 = Clock::now();
            enc += us_between(t0, t1);
            parse += us_between(t1, t2);
            if (rep > 0)
                continue;
            ++out.attempted;
            if (back.fingerprint() != res.circuit.fingerprint())
                out.fail("QASM round trip changed a circuit");
        }
        encode_us.push_back(enc / static_cast<double>(results.size()));
        parse_us.push_back(parse / static_cast<double>(results.size()));
    }
    r.add("ir.qasm_encode_us", median(encode_us), "us");
    r.add("ir.qasm_parse_us", median(parse_us), "us");
}

} // namespace pb
