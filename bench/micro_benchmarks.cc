// google-benchmark microbenchmarks for the compiler's hot kernels:
// KAK decomposition, two-qubit synthesis, CNOT-cost classification,
// commutation checks, block consolidation, commutative cancellation,
// basis translation, the router's per-decision kernels, and full
// routing passes.

#include <memory>
#include <random>
#include <string>

#include <unistd.h>

#include <benchmark/benchmark.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/dag.h"
#include "nassc/ir/qasm.h"
#include "nassc/obs/trace.h"
#include "nassc/math/weyl.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/commutation.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"
#include "nassc/route/router.h"
#include "nassc/route/sabre.h"
#include "nassc/serve/client.h"
#include "nassc/serve/server.h"
#include "nassc/service/transpile_service.h"
#include "nassc/synth/kak2q.h"
#include "nassc/transpile/context.h"

namespace {

using namespace nassc;

Mat4
random_u4(std::mt19937 &rng, int n_cx)
{
    std::uniform_real_distribution<double> ang(-M_PI, M_PI);
    auto su2 = [&] {
        return mul(rz_gate(ang(rng)),
                   mul(ry_gate(ang(rng)), rz_gate(ang(rng))));
    };
    Mat4 u = tensor2(su2(), su2());
    for (int k = 0; k < n_cx; ++k)
        u = mul(tensor2(su2(), su2()), mul(cx_mat(), u));
    return u;
}

void
BM_KakDecompose(benchmark::State &state)
{
    std::mt19937 rng(1);
    std::vector<Mat4> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(random_u4(rng, 3));
    size_t i = 0;
    for (auto _ : state) {
        Kak k = kak_decompose(inputs[i++ % inputs.size()]);
        benchmark::DoNotOptimize(k);
    }
}
BENCHMARK(BM_KakDecompose);

void
BM_CnotCost(benchmark::State &state)
{
    std::mt19937 rng(2);
    std::vector<Mat4> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(random_u4(rng, static_cast<int>(state.range(0))));
    size_t i = 0;
    for (auto _ : state) {
        int c = cnot_cost(inputs[i++ % inputs.size()]);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CnotCost)->Arg(1)->Arg(2)->Arg(3);

void
BM_Synth2q(benchmark::State &state)
{
    std::mt19937 rng(3);
    std::vector<Mat4> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(random_u4(rng, 3));
    size_t i = 0;
    for (auto _ : state) {
        auto gates = synth_2q_kak(inputs[i++ % inputs.size()], 0, 1);
        benchmark::DoNotOptimize(gates);
    }
}
BENCHMARK(BM_Synth2q);

// rz/sx on one wire is the bulk of commutation traffic in the
// {rz, sx, x, cx} basis; it takes the 2x2 commutator path.
void
BM_GatesCommuteOneWire(benchmark::State &state)
{
    Gate a(OpKind::kRZ, {0}, {0.37});
    Gate b(OpKind::kSX, {0});
    for (auto _ : state) {
        bool r = gates_commute(a, b);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_GatesCommuteOneWire);

// A 3-wire pair misses every fast path: the exact matrix check.
void
BM_GatesCommuteExact(benchmark::State &state)
{
    Gate a = Gate::two_q(OpKind::kCX, 0, 1);
    Gate b = Gate::two_q(OpKind::kCRX, 0, 2, 0.7);
    for (auto _ : state) {
        bool r = gates_commute(a, b);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_GatesCommuteExact);

/** qft_n15 routed on montreal by NASSC, SWAPs decomposed and
 *  translated to {rz, sx, x, cx}: what enters the optimization loop. */
QuantumCircuit
routed_basis_qft15()
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(qft(15));
    auto dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    Layout init = sabre_initial_layout(logical, dev.coupling, dist, opts);
    QuantumCircuit phys =
        route_circuit(logical, dev.coupling, dist, init, opts).circuit;
    decompose_swaps(phys, /*orientation_aware=*/true);
    return translate_to_basis(phys);
}

// One optimization-loop consolidation of the routed qft_n15 above.
// Arg 0 gives every iteration a fresh SynthMemo, so each distinct block
// is synthesized (the miss cost); Arg 1 reuses one warmed memo, so every
// block is a hit.  Both include copying the input circuit.
void
BM_ConsolidateOptLoop(benchmark::State &state)
{
    const QuantumCircuit phys = routed_basis_qft15();

    const bool warm = state.range(0) != 0;
    SynthMemo memo;
    ConsolidateStats st;
    if (warm) {
        QuantumCircuit qc = phys;
        consolidate_2q_blocks(qc, Basis1q::kZsx, memo);
    }
    for (auto _ : state) {
        QuantumCircuit qc = phys;
        if (warm) {
            st = consolidate_2q_blocks(qc, Basis1q::kZsx, memo);
        } else {
            SynthMemo fresh;
            st = consolidate_2q_blocks(qc, Basis1q::kZsx, fresh);
        }
        benchmark::DoNotOptimize(qc);
    }
    state.counters["blocks"] = st.blocks_considered;
    state.counters["reused"] = st.blocks_reused;
}
BENCHMARK(BM_ConsolidateOptLoop)
    ->Arg(0)
    ->Arg(1) // 0 = fresh memo, 1 = warmed memo
    ->Unit(benchmark::kMicrosecond);

// One optimization-loop cancellation (to its fixpoint) of the routed
// qft_n15, including copying the input circuit.
void
BM_CancellationFixpointRoutedQft15(benchmark::State &state)
{
    const QuantumCircuit phys = routed_basis_qft15();
    int removed = 0;
    for (auto _ : state) {
        QuantumCircuit qc = phys;
        removed = run_commutative_cancellation_to_fixpoint(qc);
        benchmark::DoNotOptimize(qc);
    }
    state.counters["gates"] = static_cast<double>(phys.size());
    state.counters["removed"] = removed;
}
BENCHMARK(BM_CancellationFixpointRoutedQft15)
    ->Unit(benchmark::kMicrosecond);

// One optimization-loop Optimize1qGates pass over the routed qft_n15,
// including copying the input circuit.  Arg 0 gives every iteration a
// fresh SynthMemo, so each distinct run is synthesized once per pass;
// Arg 1 reuses one warmed memo, so every run is a hit.
void
BM_Optimize1qRoutedQft15(benchmark::State &state)
{
    const QuantumCircuit phys = routed_basis_qft15();

    const bool warm = state.range(0) != 0;
    SynthMemo memo;
    if (warm) {
        QuantumCircuit qc = phys;
        run_optimize_1q(qc, Basis1q::kZsx, memo);
    }
    int removed = 0;
    for (auto _ : state) {
        QuantumCircuit qc = phys;
        if (warm) {
            removed = run_optimize_1q(qc, Basis1q::kZsx, memo);
        } else {
            SynthMemo fresh;
            removed = run_optimize_1q(qc, Basis1q::kZsx, fresh);
        }
        benchmark::DoNotOptimize(qc);
    }
    state.counters["gates"] = static_cast<double>(phys.size());
    state.counters["removed"] = removed;
}
BENCHMARK(BM_Optimize1qRoutedQft15)
    ->Arg(0)
    ->Arg(1) // 0 = fresh memo, 1 = warmed memo
    ->Unit(benchmark::kMicrosecond);

// Basis translation of the routed qft_n15: every 1q gate is
// re-synthesized in place, CX, measure and barrier pass through.  The
// pass reads its input, so no copy is timed.  Arg 0 gives every
// iteration a fresh SynthMemo, Arg 1 reuses one warmed memo.
void
BM_TranslateToBasisRoutedQft15(benchmark::State &state)
{
    const QuantumCircuit phys = routed_basis_qft15();

    const bool warm = state.range(0) != 0;
    SynthMemo memo;
    if (warm)
        translate_to_basis(phys, memo);
    for (auto _ : state) {
        if (warm) {
            QuantumCircuit out = translate_to_basis(phys, memo);
            benchmark::DoNotOptimize(out);
        } else {
            SynthMemo fresh;
            QuantumCircuit out = translate_to_basis(phys, fresh);
            benchmark::DoNotOptimize(out);
        }
    }
    state.counters["gates"] = static_cast<double>(phys.size());
}
BENCHMARK(BM_TranslateToBasisRoutedQft15)
    ->Arg(0)
    ->Arg(1) // 0 = fresh memo, 1 = warmed memo
    ->Unit(benchmark::kMicrosecond);

// OpenQASM encode of a transpiled qft_n15 (montreal, NASSC): the text
// a wire response carries, and what a cache entry keeps once encoded.
void
BM_ToQasmRoutedQft15(benchmark::State &state)
{
    const QuantumCircuit routed =
        TranspileContext::global()
            .transpile(qft(15), montreal_backend(), TranspileOptions{})
            .circuit;
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::string text = to_qasm(routed);
        bytes = text.size();
        benchmark::DoNotOptimize(text);
    }
    state.counters["gates"] = static_cast<double>(routed.gates().size());
    state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ToQasmRoutedQft15)->Unit(benchmark::kMicrosecond);

// OpenQASM parse of the logical qft_n15 text (4,103 bytes): what a wire
// request pays unless its text repeats the one its cache entry keeps.
void
BM_FromQasmQft15(benchmark::State &state)
{
    const std::string text = to_qasm(qft(15));
    std::size_t gates = 0;
    for (auto _ : state) {
        QuantumCircuit qc = from_qasm(text);
        gates = qc.size();
        benchmark::DoNotOptimize(qc);
    }
    state.counters["gates"] = static_cast<double>(gates);
    state.counters["bytes"] = static_cast<double>(text.size());
    state.counters["ns_per_gate"] = benchmark::Counter(
        static_cast<double>(gates),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_FromQasmQft15)->Unit(benchmark::kMicrosecond);

// An in-process cache hit on the 4,243-qubit heavy-hex device: the
// request costs O(circuit), the backend key is not re-hashed.
void
BM_ServiceHitHeavyHex(benchmark::State &state)
{
    TranspileService service;
    const auto backend =
        std::make_shared<const Backend>(heavy_hex_backend(41));
    const QuantumCircuit qc = ghz(5);
    service.submit(qc, backend).get();
    for (auto _ : state) {
        TranspileTicket t = service.submit(qc, backend);
        if (t.source() != TicketSource::kCacheHit) {
            state.SkipWithError("not a cache hit");
            break;
        }
        benchmark::DoNotOptimize(t.get());
    }
}
BENCHMARK(BM_ServiceHitHeavyHex)->Unit(benchmark::kMicrosecond);

// A submit_qasm cache hit on qft_n15's text: the request is matched by
// its text, so it costs a hash and a compare of the 4,103 bytes, not
// the parse BM_FromQasmQft15 times.
void
BM_ServiceHitQasm(benchmark::State &state)
{
    TranspileService service;
    const auto backend = std::make_shared<const Backend>(montreal_backend());
    const std::string text = to_qasm(qft(15));
    service.submit_qasm(text, backend).get();
    for (auto _ : state) {
        TranspileTicket t = service.submit_qasm(text, backend);
        if (t.source() != TicketSource::kCacheHit) {
            state.SkipWithError("not a cache hit");
            break;
        }
        benchmark::DoNotOptimize(t.get());
    }
    state.counters["text_hits"] =
        static_cast<double>(service.stats().text_hits);
}
BENCHMARK(BM_ServiceHitQasm)->Unit(benchmark::kMicrosecond);

// Fresh-seed misses of the tiny wire_mix circuits (ghz_3, ghz_4, bv_n3
// on montreal) through a TranspileService: every request is a new key,
// so each is a full transpile.  Arg 0 builds a fresh service per
// iteration, so its SynthMemo pool starts cold; Arg 1 keeps one service,
// so each miss leases the memo the earlier misses warmed.
void
BM_ServiceMissTiny(benchmark::State &state)
{
    const auto backend = std::make_shared<const Backend>(montreal_backend());
    const QuantumCircuit smalls[] = {ghz(3), ghz(4),
                                     bernstein_vazirani(3, 0b11)};
    const bool warm = state.range(0) != 0;
    // One distance cache for both modes, so only the pool differs.
    ServiceOptions sopts;
    sopts.distances = std::make_shared<DistanceCache>();
    std::unique_ptr<TranspileService> kept;
    if (warm)
        kept = std::make_unique<TranspileService>(sopts);
    unsigned seed = 0;
    for (auto _ : state) {
        std::unique_ptr<TranspileService> fresh;
        if (!warm)
            fresh = std::make_unique<TranspileService>(sopts);
        TranspileService &service = warm ? *kept : *fresh;
        TranspileOptions opts;
        opts.seed = ++seed;
        opts.router = seed % 2 ? RoutingAlgorithm::kNassc
                               : RoutingAlgorithm::kSabre;
        benchmark::DoNotOptimize(
            service.submit(smalls[seed % 3], backend, opts).get());
    }
    if (warm)
        state.counters["memo_hits"] =
            static_cast<double>(kept->stats().synth_memo_hits);
}
BENCHMARK(BM_ServiceMissTiny)
    ->Arg(0)
    ->Arg(1) // 0 = fresh service per miss, 1 = one service, warm pool
    ->Unit(benchmark::kMicrosecond);

// The same fresh-seed misses over the wire: an in-process NasscServer
// and one ServeClient on a unix socket, one request in flight at a
// time.  Against BM_ServiceMissTiny/1 this shows what serving adds to
// a miss: framing, the connection thread and any thread handoff.
// `caller_runs` counts the misses the connection thread ran itself.
void
BM_WireMissTiny(benchmark::State &state)
{
    const std::string smalls[] = {to_qasm(ghz(3)), to_qasm(ghz(4)),
                                  to_qasm(bernstein_vazirani(3, 0b11))};
    ServerOptions options;
    options.unix_path =
        "/tmp/nassc_bench_" + std::to_string(::getpid()) + ".sock";
    NasscServer server(options);
    server.start();
    ServeClient client = ServeClient::connect_unix(options.unix_path);
    unsigned seed = 0;
    for (auto _ : state) {
        ++seed;
        const ServeResponse resp = client.transpile_qasm(
            smalls[seed % 3], "ibmq_montreal",
            {{"seed", std::to_string(seed)},
             {"router", seed % 2 ? "nassc" : "sabre"}});
        if (resp.status != "ok") {
            state.SkipWithError(resp.error.c_str());
            break;
        }
        benchmark::DoNotOptimize(resp.qasm.data());
    }
    state.counters["caller_runs"] =
        static_cast<double>(server.service().stats().caller_runs);
    server.stop();
}
BENCHMARK(BM_WireMissTiny)->Unit(benchmark::kMicrosecond);

// ---- router hot kernels -----------------------------------------------------
//
// These drive the Router's per-decision kernels in isolation on a
// blocked front (qft(16) on montreal under the trivial layout), so the
// flat-memory / incremental-scoring speedups are measurable without the
// surrounding pass pipeline.

struct RouterFixture
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(qft(16));
    DagCircuit dag{logical};
    DistanceProvider dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    Layout init{16, 27};
    Router router{dag, dev.coupling, dist, opts};

    RouterFixture()
    {
        router.reset(init);
        router.execute_ready();
    }
};

void
BM_SwapCandidates(benchmark::State &state)
{
    RouterFixture f;
    for (auto _ : state) {
        const auto &cands = f.router.swap_candidates();
        benchmark::DoNotOptimize(cands.size());
    }
}
BENCHMARK(BM_SwapCandidates);

void
BM_ExtendedSet(benchmark::State &state)
{
    RouterFixture f;
    for (auto _ : state) {
        f.router.invalidate_extended_set(); // measure a cold rebuild
        const auto &ext = f.router.extended_set();
        benchmark::DoNotOptimize(ext.size());
    }
}
BENCHMARK(BM_ExtendedSet);

void
BM_ApplyBestSwapDecision(benchmark::State &state)
{
    // One full decision: candidate generation, (cached) extended set,
    // incremental scoring of every candidate, SWAP application.  The
    // router is rewound periodically so the front stays representative.
    RouterFixture f;
    int decisions = 0;
    for (auto _ : state) {
        f.router.apply_best_swap();
        if (++decisions == 256) {
            state.PauseTiming();
            f.router.reset(f.init);
            f.router.execute_ready();
            decisions = 0;
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_ApplyBestSwapDecision);

void
BM_RouteTableICircuit(benchmark::State &state)
{
    // End-to-end route_circuit on a Table I workload (rd84_253: 12
    // qubits, ~1.9k gates) with a fixed SABRE-refined layout.
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(benchmark_by_name("rd84_253"));
    auto dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.algorithm = static_cast<RoutingAlgorithm>(state.range(0));
    Layout init = sabre_initial_layout(logical, dev.coupling, dist, opts);
    for (auto _ : state) {
        RoutingResult r =
            route_circuit(logical, dev.coupling, dist, init, opts);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_RouteTableICircuit)
    ->Arg(0)
    ->Arg(1) // 0 = SABRE, 1 = NASSC
    ->Unit(benchmark::kMillisecond);

void
BM_RouteQft15(benchmark::State &state)
{
    Backend dev = linear_backend(25);
    QuantumCircuit logical = decompose_to_2q(qft(15));
    auto dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.algorithm = static_cast<RoutingAlgorithm>(state.range(0));
    Layout init(15, 25);
    for (auto _ : state) {
        RoutingResult r =
            route_circuit(logical, dev.coupling, dist, init, opts);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_RouteQft15)->Arg(0)->Arg(1); // 0 = SABRE, 1 = NASSC

void
BM_SabreLayoutTrials(benchmark::State &state)
{
    // The LayoutSearch engine on a Table I workload: 1 trial vs N
    // trials, serial vs pooled.  Args are (layout_trials,
    // layout_threads); the layout output is bit-identical across the
    // thread counts, so these rows measure pure engine scaling.
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(benchmark_by_name("rd84_253"));
    auto dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.layout_trials = static_cast<int>(state.range(0));
    opts.layout_threads = static_cast<int>(state.range(1));
    for (auto _ : state) {
        Layout l = sabre_initial_layout(logical, dev.coupling, dist, opts);
        benchmark::DoNotOptimize(l);
    }
}
BENCHMARK(BM_SabreLayoutTrials)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

void
BM_TranspileGrover8(benchmark::State &state)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = grover(8);
    for (auto _ : state) {
        TranspileOptions opts;
        opts.router = static_cast<RoutingAlgorithm>(state.range(0));
        TranspileResult r =
            TranspileContext::global().transpile(logical, dev, opts);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_TranspileGrover8)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The obs overhead contract (obs/trace.h): a pure TraceSpan site with
// no tracer live anywhere must cost ONE relaxed atomic load — the
// armed/unarmed pair below is how that claim is checked, not assumed.
// Router::run opens one of these per routing pass.
void
BM_TraceSpanSiteUnarmed(benchmark::State &state)
{
    for (auto _ : state) {
        obs::TraceSpan span("bench_site");
        benchmark::DoNotOptimize(span);
    }
}
BENCHMARK(BM_TraceSpanSiteUnarmed);

void
BM_TraceSpanSiteArmed(benchmark::State &state)
{
    // A live tracer on this thread: every span now reads the clock
    // twice and records under the tracer's mutex.
    auto tracer = std::make_shared<obs::Tracer>("bench");
    obs::TraceScope scope(tracer);
    for (auto _ : state) {
        obs::TraceSpan span("bench_site");
        benchmark::DoNotOptimize(span);
    }
}
BENCHMARK(BM_TraceSpanSiteArmed);

} // namespace

BENCHMARK_MAIN();
