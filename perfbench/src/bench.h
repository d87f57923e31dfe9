#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the perfbench harness: run arguments, the metric
 * report, failure accounting, sample statistics, and the output checks
 * that do not trust the compiler under test.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/transpile/context.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
us_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string nasscd;                  ///< daemon binary (wire_mix)
    std::string run_dir = ".bench_run"; ///< scratch dir inside the checkout
};

/** SplitMix64 finalizer: independent sub-seeds from the workload seed. */
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile, q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &v);

/** Metrics of one run, in emission order. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    /** Human-readable `name value unit` lines. */
    void print_table() const;
    /** The run's JSON result line. */
    std::string json(bool correct, long attempted, long failed) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

/** Attempts and failures of one run; failures are listed on stderr. */
struct Outcome
{
    long attempted = 0;
    long failed = 0;
    void fail(const std::string &what);
};

/**
 * Exact-count guard: counts that must repeat bit-for-bit across passes
 * of one run and across runs with the same seed.  record() pins the
 * first value seen for a name and fails `out` on any later mismatch.
 */
class ExactCounts
{
  public:
    void record(const std::string &name, long long value, Outcome &out);
    /** Compare with (and then store) the counts of the last run of the
     *  same build, workload, seed and mode under `dir`. */
    void check_against_previous(const std::string &dir, const Args &args,
                                Outcome &out) const;

  private:
    std::map<std::string, long long> values_;
};

/** One (circuit, router) cell of a compile list. */
struct CompileItem
{
    std::string name;
    nassc::QuantumCircuit circuit;
    nassc::TranspileOptions options;
    int base_cx = 0; ///< optimize_only() CNOTs (the CNOT_add baseline)
};

/** A workload's circuit list on one device. */
struct CompileList
{
    std::shared_ptr<const nassc::Backend> backend;
    std::vector<CompileItem> items;
};

/**
 * Build the list for `workload` (table1_compile, heavyhex_route, or the
 * wire_mix hot set) from the workload seed, including the
 * optimize_only() baselines.  This is the set-up step.
 */
CompileList build_compile_list(const std::string &workload,
                               std::uint64_t seed);

/** Sums over a list's outputs, and the paper's CNOT_add metric. */
struct ListTotals
{
    long long cx_total = 0;
    long long depth_total = 0;
    /** Geomean over circuits of NASSC CNOT_add / SABRE CNOT_add (Table
     *  I's ΔCNOT_add is 1 minus this, in percent). */
    double cx_add_ratio = 0.0;
};

ListTotals list_totals(const CompileList &list,
                       const std::vector<nassc::TranspileResult> &results);

/** Latency samples of one run, split into the run's segments (compile
 *  passes, or thirds of the open loop). */
using Segments = std::vector<std::vector<double>>;

/**
 * Emit the end-to-end metrics shared by every workload.  A latency
 * metric is the interquartile mean over all samples; the percentiles
 * printed beside it take a tail as the median of the segments' values,
 * so a host stall that spoils one segment's tail does not move it.
 */
void emit_end_to_end(const std::vector<double> &setup_s, double compile_s,
                     const ListTotals &totals, double peak_rss_mb,
                     const Segments &hit_us, const Segments &miss_us,
                     Report &report);

/**
 * Independent output checks: every gate in {rz, sx, x, cx} (measures and
 * barriers pass through), every CX on a coupling edge, and — when the
 * state-vector work (gates x 2^active wires) stays under 2^23 —
 * verify_transpilation() against the logical circuit.  Failures go to
 * `out`.
 */
void check_output(const std::string &what,
                  const nassc::QuantumCircuit &logical,
                  const nassc::TranspileResult &result,
                  const nassc::CouplingMap &coupling, Outcome &out);

/** This process's peak resident set, in MiB. */
double self_peak_rss_mb();

/** Stage timers and counters of the traced replay, summed over a list. */
struct LayerTotals
{
    double decompose_s = 0, opt1q_s = 0, pre_consolidate_s = 0,
           swap_consolidate_s = 0, loop_consolidate_s = 0, cancel_s = 0,
           translate_s = 0, decompose_swaps_s = 0, resolve_s = 0,
           layout_s = 0, route_s = 0;
    long long consolidate_blocks = 0, consolidate_replaced = 0,
              loop_rounds = 0, cancel_removed = 0, swaps = 0,
              full_route_passes = 0, c2q_hits = 0, commute1_hits = 0,
              commute2_hits = 0;
    double wall_s = 0; ///< replay wall time, timers included
    nassc::DistanceCache::Stats distance;

    double timed_s() const;
};

/**
 * Re-run transpile()'s steps for every item through the public pass,
 * route and distance calls, one timer per step, over a fresh
 * DistanceCache.  Returns the output fingerprints, in item order.
 */
std::vector<std::uint64_t> replay_list(const CompileList &list,
                                       LayerTotals &totals);

/** Emit passes.*, route.* and distance.* per-layer metrics. */
void emit_layers(const LayerTotals &t, Report &report);

/**
 * Emit trace.* metrics: the replay's unattributed share, its overhead
 * against the untraced compile, and whether its outputs matched
 * transpile()'s.  A mismatch marks the split stale; it is not a failure.
 */
void emit_trace_meta(const LayerTotals &t, double untraced_compile_s,
                     const std::vector<std::uint64_t> &replayed,
                     const std::vector<nassc::TranspileResult> &reference,
                     Report &report);

/** Per-request latency split of the in-process or wire serve path. */
struct ServeSplit
{
    std::vector<double> decode_us, queue_wait_us, transpile_us, ping_us,
        unattributed_us;
    double hit_ratio = 0.0;
    long long transpiles = 0;
    long long coalesced = 0;
};

/**
 * Send every item of `list` twice (a miss, then a cache hit) through an
 * in-process NasscServer with `option trace=1`, plus a ping burst, and
 * check each response byte-equal to to_qasm of `ref`.
 */
ServeSplit wire_pass_in_process(const Args &args, const CompileList &list,
                                const std::vector<nassc::TranspileResult> &ref,
                                Outcome &out);

/** Emit the serve.* and service.* per-layer metrics. */
void emit_serve_split(const ServeSplit &s, Report &report);

/** QASM encode/parse cost over `results` (mean per circuit, median of
 *  five sweeps), with a round-trip fingerprint check. */
void emit_qasm_costs(const std::vector<nassc::TranspileResult> &results,
                     Report &report, Outcome &out);

/** The workloads: table1_compile and heavyhex_route, and wire_mix. */
void run_compile_workload(const Args &args, Report &report, Outcome &out,
                          ExactCounts &exact);
void run_wire_mix(const Args &args, Report &report, Outcome &out,
                  ExactCounts &exact);

} // namespace pb

#endif // PERFBENCH_BENCH_H
