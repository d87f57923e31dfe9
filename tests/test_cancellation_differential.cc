// Differential test of the commutative cancellation pass.
//
// The pass runs on a flat commutation analysis (one CSR gate list per
// wire, commute sets as runs of it) and compacts the circuit in place.
// The pass it replaced, with its nested per-wire analysis, is kept below
// verbatim as legacy::run_commutative_cancellation.  On the circuits
// that enter every optimization-loop cancellation of the Table I
// workload and on thousands of seeded random circuits, each round must
// remove the same number of gates and leave the same circuit (equal
// fingerprint()), and the fixpoint totals must agree.

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/commutation.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"
#include "nassc/route/layout_search.h"
#include "nassc/service/distance_cache.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace legacy {

// ---- the replaced pass, verbatim ----------------------------------------
// (One call is qualified: argument-dependent lookup would also find
// nassc::analyze_commutation.  The fixpoint loop is compared through
// the per-round totals.)

/** Per-wire commute sets of a circuit. */
struct CommutationInfo
{
    /**
     * wire_sets[w] is the ordered list of commute sets on wire w; each
     * set holds gate indices (ascending).
     */
    std::vector<std::vector<std::vector<int>>> wire_sets;

    /** set_index[w][k] = ordinal of the set containing the k-th gate *on
     *  wire w* (parallel to wire_gates[w]). */
    std::vector<std::vector<int>> set_index;

    /** Gate indices on each wire, in circuit order. */
    std::vector<std::vector<int>> wire_gates;

    /** Ordinal of the set that contains gate `gate_idx` on wire w, or -1. */
    int set_of(int wire, int gate_idx) const;
};

int
CommutationInfo::set_of(int wire, int gate_idx) const
{
    const std::vector<int> &gates = wire_gates[wire];
    auto it = std::lower_bound(gates.begin(), gates.end(), gate_idx);
    if (it == gates.end() || *it != gate_idx)
        return -1;
    return set_index[wire][it - gates.begin()];
}

CommutationInfo
analyze_commutation(const QuantumCircuit &qc)
{
    CommutationInfo info;
    int n = qc.num_qubits();
    info.wire_sets.resize(n);
    info.set_index.resize(n);
    info.wire_gates.resize(n);

    // One pass over the circuit files every gate under each wire it acts
    // on (once per wire, even if a wire repeats in its operand list), so
    // the cost follows the gates, not qubits x gates.  Each wire's list
    // is in circuit order, as a per-wire scan would produce it.
    for (size_t i = 0; i < qc.size(); ++i) {
        const int idx = static_cast<int>(i);
        for (int w : qc.gate(i).qubits) {
            std::vector<int> &on_wire = info.wire_gates[w];
            if (on_wire.empty() || on_wire.back() != idx)
                on_wire.push_back(idx);
        }
    }

    for (int w = 0; w < n; ++w) {
        std::vector<int> current;
        auto close = [&]() {
            if (!current.empty()) {
                info.wire_sets[w].push_back(current);
                current.clear();
            }
        };
        for (int i : info.wire_gates[w]) {
            const Gate &g = qc.gate(i);
            bool fits = true;
            for (int j : current) {
                if (!gates_commute(qc.gate(j), g)) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                close();
            current.push_back(i);
            info.set_index[w].push_back(
                static_cast<int>(info.wire_sets[w].size()));
        }
        close();
    }
    return info;
}

bool
is_z_rotation_like(OpKind k)
{
    switch (k) {
      case OpKind::kZ:
      case OpKind::kS:
      case OpKind::kSdg:
      case OpKind::kT:
      case OpKind::kTdg:
      case OpKind::kRZ:
      case OpKind::kP:
        return true;
      default:
        return false;
    }
}

double
z_angle(const Gate &g)
{
    switch (g.kind) {
      case OpKind::kZ: return M_PI;
      case OpKind::kS: return M_PI / 2.0;
      case OpKind::kSdg: return -M_PI / 2.0;
      case OpKind::kT: return M_PI / 4.0;
      case OpKind::kTdg: return -M_PI / 4.0;
      case OpKind::kRZ:
      case OpKind::kP:
        return g.params[0];
      default:
        return 0.0;
    }
}

double
norm_angle(double a)
{
    a = std::fmod(a, 2.0 * M_PI);
    if (a <= -M_PI)
        a += 2.0 * M_PI;
    if (a > M_PI)
        a -= 2.0 * M_PI;
    return a;
}

int
run_commutative_cancellation(QuantumCircuit &qc)
{
    CommutationInfo info = legacy::analyze_commutation(qc);
    size_t n_gates = qc.size();
    std::vector<bool> removed(n_gates, false);
    std::vector<bool> rewritten(n_gates, false);
    std::map<int, Gate> replacement;
    int removed_count = 0;

    // --- self-inverse pair cancellation -----------------------------------
    // Candidates grouped within each commute set of each wire; a pair
    // cancels when both gates sit in the same commute set on *every* wire
    // they act on.
    auto same_sets_everywhere = [&](int i, int j) {
        const Gate &g = qc.gate(i);
        for (int w : g.qubits) {
            if (info.set_of(w, i) != info.set_of(w, j))
                return false;
        }
        return true;
    };

    for (int w = 0; w < qc.num_qubits(); ++w) {
        for (const std::vector<int> &set : info.wire_sets[w]) {
            // Collect self-inverse gates keyed by (kind, qubits).
            std::map<std::pair<int, QubitVec>, std::vector<int>> groups;
            for (int idx : set) {
                const Gate &g = qc.gate(idx);
                if (removed[idx] || !is_self_inverse(g.kind))
                    continue;
                // Handle each gate from its first wire only, so a 2q gate
                // is not processed twice.
                if (g.qubits[0] != w)
                    continue;
                groups[{static_cast<int>(g.kind), g.qubits}].push_back(idx);
            }
            for (auto &[key, idxs] : groups) {
                // Cancel adjacent-in-set pairs greedily.
                size_t i = 0;
                while (i + 1 < idxs.size()) {
                    int a = idxs[i], b = idxs[i + 1];
                    if (!removed[a] && !removed[b] &&
                        same_sets_everywhere(a, b)) {
                        removed[a] = removed[b] = true;
                        removed_count += 2;
                        i += 2;
                    } else {
                        ++i;
                    }
                }
            }
        }
    }

    // --- z-rotation merging -------------------------------------------------
    for (int w = 0; w < qc.num_qubits(); ++w) {
        for (const std::vector<int> &set : info.wire_sets[w]) {
            std::vector<int> zs;
            for (int idx : set) {
                const Gate &g = qc.gate(idx);
                if (!removed[idx] && !rewritten[idx] &&
                    g.num_qubits() == 1 && g.qubits[0] == w &&
                    is_z_rotation_like(g.kind))
                    zs.push_back(idx);
            }
            if (zs.size() < 2)
                continue;
            double total = 0.0;
            for (int idx : zs)
                total += z_angle(qc.gate(idx));
            total = norm_angle(total);
            for (size_t i = 1; i < zs.size(); ++i) {
                removed[zs[i]] = true;
                ++removed_count;
            }
            if (std::abs(total) < 1e-12) {
                removed[zs[0]] = true;
                ++removed_count;
            } else {
                replacement[zs[0]] = Gate::one_q(OpKind::kRZ, w, total);
                rewritten[zs[0]] = true;
            }
        }
    }

    // Rebuild the circuit.
    QuantumCircuit out(qc.num_qubits());
    for (size_t i = 0; i < n_gates; ++i) {
        if (removed[i])
            continue;
        if (rewritten[i])
            out.append(replacement[static_cast<int>(i)]);
        else
            out.append(qc.gate(i));
    }
    qc = std::move(out);
    return removed_count;
}

} // namespace legacy

namespace {

constexpr int kMaxRounds = 10;

/**
 * Cancel `qc` to its fixpoint with both passes, comparing after every
 * round, then check run_commutative_cancellation_to_fixpoint() against
 * the legacy total.  Returns the fixpoint circuit.
 */
QuantumCircuit
expect_same_cancellation(const QuantumCircuit &qc, const std::string &tag)
{
    QuantumCircuit got = qc, want = qc;
    int legacy_total = 0;
    for (int round = 0; round < kMaxRounds; ++round) {
        const int r_got = run_commutative_cancellation(got);
        const int r_want = legacy::run_commutative_cancellation(want);
        EXPECT_EQ(r_got, r_want) << tag << " round " << round;
        EXPECT_EQ(got.fingerprint(), want.fingerprint())
            << tag << " round " << round;
        if (r_got != r_want || got.fingerprint() != want.fingerprint())
            break;
        legacy_total += r_want;
        if (r_want == 0)
            break;
    }

    QuantumCircuit fix = qc;
    EXPECT_EQ(run_commutative_cancellation_to_fixpoint(fix, kMaxRounds),
              legacy_total)
        << tag;
    EXPECT_EQ(fix.fingerprint(), want.fingerprint()) << tag;
    EXPECT_EQ(fix.num_qubits(), qc.num_qubits()) << tag;
    return fix;
}

/**
 * transpile() step by step, checking every optimization-loop
 * cancellation differentially.  Returns the transpiled circuit, which
 * must equal transpile()'s, so the checked inputs are the real ones.
 */
QuantumCircuit
transpile_checking_cancellation(const QuantumCircuit &qc,
                                const Backend &backend,
                                const TranspileOptions &opts,
                                DistanceCache &cache, const std::string &tag)
{
    SynthMemo memo;
    QuantumCircuit c = decompose_to_2q(qc);
    run_optimize_1q(c, Basis1q::kUGate);
    consolidate_2q_blocks(c, Basis1q::kUGate, memo);

    const SharedDistanceProvider dist =
        cache.provider(backend, DistanceRequest::hops());
    const RoutingOptions ropts = routing_options(opts);
    LayoutSearchResult search = search_and_route(
        c, backend.coupling, *dist, ropts, opts.layout_iterations);
    QuantumCircuit phys =
        search.routed ? std::move(search.routed->circuit)
                      : route_circuit(c, backend.coupling, *dist,
                                      search.initial, ropts)
                            .circuit;

    decompose_swaps(phys, opts.router == RoutingAlgorithm::kNassc &&
                              opts.orientation_aware_decomposition);
    phys = translate_to_basis(phys);

    int last_size = -1;
    for (int r = 0; r < opts.opt_loop_rounds; ++r) {
        run_optimize_1q(phys, Basis1q::kZsx);
        phys = expect_same_cancellation(phys, tag + " loop " +
                                                  std::to_string(r));
        consolidate_2q_blocks(phys, Basis1q::kZsx, memo);
        phys = translate_to_basis(phys);
        run_optimize_1q(phys, Basis1q::kZsx);
        const int size = static_cast<int>(phys.size());
        if (size == last_size)
            break;
        last_size = size;
    }
    return phys;
}

TEST(CancellationDifferential, TableILoopInputs)
{
    const Backend dev = montreal_backend();
    DistanceCache cache;
    for (const BenchmarkCase &bench : table_benchmarks()) {
        for (RoutingAlgorithm router :
             {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
            TranspileOptions opts;
            opts.router = router;
            const std::string tag =
                bench.name +
                (router == RoutingAlgorithm::kSabre ? "/sabre" : "/nassc");
            const QuantumCircuit out = transpile_checking_cancellation(
                bench.circuit, dev, opts, cache, tag);
            EXPECT_EQ(out.fingerprint(),
                      transpile(bench.circuit, dev, opts, cache)
                          .circuit.fingerprint())
                << tag << ": the step-by-step pipeline left transpile()";
        }
    }
}

/**
 * Random circuit on `n` wires with gates on `active` of them, biased
 * towards what the pass acts on: self-inverse pairs, z-axis rotations
 * whose angles can sum to zero, gates that repeat the last operands.
 */
QuantumCircuit
random_circuit(std::mt19937 &rng, int n, int active, int gates)
{
    std::vector<int> wires(n);
    for (int i = 0; i < n; ++i)
        wires[i] = i;
    std::shuffle(wires.begin(), wires.end(), rng);
    wires.resize(active);
    auto pick = [&] {
        return wires[std::uniform_int_distribution<int>(0, active - 1)(rng)];
    };
    auto coin = [&](int percent) {
        return std::uniform_int_distribution<int>(0, 99)(rng) < percent;
    };
    auto angle = [&] {
        if (coin(50))
            return M_PI / 4.0 *
                   std::uniform_int_distribution<int>(-8, 8)(rng);
        return std::uniform_real_distribution<double>(-4.0, 4.0)(rng);
    };

    QuantumCircuit qc(n);
    int a = pick(), b = pick();
    for (int k = 0; k < gates; ++k) {
        if (!coin(30)) {
            a = pick();
            b = pick();
        }
        while (b == a)
            b = pick();
        if (coin(20))
            std::swap(a, b);
        switch (std::uniform_int_distribution<int>(0, 17)(rng)) {
          case 0: qc.h(a); break;
          case 1: qc.x(a); break;
          case 2: qc.y(a); break;
          case 3: qc.z(a); break;
          case 4: qc.s(a); break;
          case 5: qc.sdg(a); break;
          case 6: qc.t(a); break;
          case 7: qc.tdg(a); break;
          case 8: qc.sx(a); break;
          case 9: qc.rz(angle(), a); break;
          case 10: qc.p(angle(), a); break;
          case 11: qc.cz(a, b); break;
          case 12: qc.swap(a, b); break;
          case 13:
            if (coin(50))
                qc.measure(a);
            else if (coin(80))
                qc.append(Gate::barrier({a, b}));
            else
                qc.barrier();
            break;
          default: qc.cx(a, b); break;
        }
    }
    return qc;
}

TEST(CancellationDifferential, SeededRandomCircuits)
{
    for (unsigned seed = 1; seed <= 2400; ++seed) {
        std::mt19937 rng(seed);
        const int n = 2 + static_cast<int>(seed % 7);
        const int active = 2 + static_cast<int>((seed / 7) % (n - 1));
        const int gates = 4 + static_cast<int>((seed * 37) % 90);
        expect_same_cancellation(random_circuit(rng, n, active, gates),
                                 "seed " + std::to_string(seed));
        if (HasFailure())
            return;
    }
}

TEST(CancellationDifferential, SparseCircuitsOnWideRegisters)
{
    for (unsigned seed = 1; seed <= 60; ++seed) {
        std::mt19937 rng(10000 + seed);
        const int n = 100 + static_cast<int>(seed) * 97;
        const int active = 2 + static_cast<int>(seed % 9);
        expect_same_cancellation(
            random_circuit(rng, n, active, 40 + 5 * static_cast<int>(seed)),
            "wide seed " + std::to_string(seed));
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace nassc
