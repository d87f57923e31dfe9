#include "nassc/route/layout_search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <random>
#include <tuple>

#include "nassc/ir/fnv1a.h"
#include "nassc/obs/metrics.h"
#include "nassc/obs/trace.h"
#include "nassc/route/perfect_layout.h"
#include "nassc/route/router.h"
#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"
#include "nassc/service/scheduler.h"

namespace nassc {

unsigned
derive_trial_seed(unsigned base_seed, int trial)
{
    // Trial 0 keeps the caller's seed so a single-trial search is
    // bit-identical to the historical sabre_initial_layout().
    if (trial == 0)
        return base_seed;
    // FNV-1a over (base_seed, trial), folded to 32 bits — the same
    // construction as derive_job_seed(), and like it a pure function of
    // its arguments, never of scheduling order.
    Fnv1a mix;
    mix.u32(base_seed);
    mix.u32(static_cast<std::uint32_t>(trial));
    return mix.fold32();
}

namespace {

/** Backtracking budget for the trial-1 embedding seed: enough to find
 *  genuine chain/tree embeddings outright, bounded so dense interaction
 *  graphs (which can never embed) cost a few milliseconds, not the
 *  perfect-layout default budget. */
constexpr long kEmbedSeedBudget = 20000;

QuantumCircuit
reversed(const QuantumCircuit &c)
{
    QuantumCircuit r(c.num_qubits());
    for (auto it = c.gates().rbegin(); it != c.gates().rend(); ++it)
        r.append(*it);
    return r;
}

RoutingOptions
mapping_options(const RoutingOptions &opts)
{
    RoutingOptions lopts = opts;
    // The mapping search is shared between SABRE and NASSC (paper
    // Sec. IV-A): trials always refine and score with the plain SABRE
    // cost.  This is also what makes retention legal exactly when the
    // downstream pipeline is kSabre: the scoring pass then routes with
    // the downstream options verbatim.
    lopts.algorithm = RoutingAlgorithm::kSabre;
    return lopts;
}

} // namespace

/** One race slot's reusable Routers (forward + reverse + score). */
struct LayoutSearch::WorkerCtx
{
    Router fwd;
    Router rev;
    /** Full-circuit scoring router; built lazily, only when the circuit
     *  has non-unitary ops (otherwise fwd doubles as the scorer). */
    std::unique_ptr<Router> score;

    WorkerCtx(const DagCircuit &fwd_dag, const DagCircuit &rev_dag,
              const CouplingMap &coupling, const DistanceProvider &dist,
              const RoutingOptions &opts)
        : fwd(fwd_dag, coupling, dist, opts),
          rev(rev_dag, coupling, dist, opts)
    {
    }
};

LayoutSearch::LayoutSearch(const QuantumCircuit &logical,
                           const CouplingMap &coupling,
                           const DistanceProvider &dist,
                           const RoutingOptions &opts, int iterations)
    : coupling_(coupling), dist_(&dist), opts_(mapping_options(opts)),
      retain_(opts.reuse_routing &&
              opts.algorithm == RoutingAlgorithm::kSabre),
      trials_requested_(opts.layout_trials), iterations_(iterations),
      num_logical_(logical.num_qubits()),
      fwd_(logical.without_non_unitary()), rev_(reversed(fwd_)),
      fwd_dag_(fwd_), rev_dag_(rev_)
{
    // The refinement passes route the stripped circuit (historical,
    // bit-compatible); the scoring pass must route what route_circuit()
    // would see, so a second DAG exists exactly when they differ.
    if (logical.size() != fwd_.size())
        full_dag_.emplace(logical);
}

LayoutSearch::~LayoutSearch() = default;

LayoutSearch::WorkerCtx &
LayoutSearch::ctx(int worker)
{
    // Each slot is drained by exactly one thread per run(), so no two
    // threads can race on one entry; the Routers are built on first use
    // and reused for every later trial this slot executes.
    auto &slot = workers_[static_cast<std::size_t>(worker)];
    if (!slot)
        slot = std::make_unique<WorkerCtx>(fwd_dag_, rev_dag_, coupling_,
                                           *dist_, opts_);
    return *slot;
}

Router &
LayoutSearch::score_router(WorkerCtx &c)
{
    if (!full_dag_)
        return c.fwd;
    if (!c.score)
        c.score = std::make_unique<Router>(*full_dag_, coupling_, *dist_,
                                           opts_);
    return *c.score;
}

Layout
LayoutSearch::embedding_seed_layout() const
{
    // Deepest partial embedding within a fixed budget, completed by a
    // greedy pass: each unassigned logical takes the free physical
    // qubit closest (by the search's own metric) to its already-placed
    // interaction neighbours, ties to the lowest index.  Deterministic,
    // so the trial stays bit-identical across thread counts.
    const int np = coupling_.num_qubits();
    PartialEmbedding pe =
        find_partial_embedding(fwd_, coupling_, kEmbedSeedBudget);
    std::vector<int> l2p = std::move(pe.l2p);
    l2p.resize(static_cast<std::size_t>(num_logical_), -1);

    std::vector<bool> used(static_cast<std::size_t>(np), false);
    for (int p : l2p)
        if (p >= 0)
            used[static_cast<std::size_t>(p)] = true;

    std::vector<std::vector<int>> nbrs(
        static_cast<std::size_t>(num_logical_));
    for (auto [a, b] : interaction_edges(fwd_)) {
        nbrs[static_cast<std::size_t>(a)].push_back(b);
        nbrs[static_cast<std::size_t>(b)].push_back(a);
    }

    // Rows of the already-placed interaction neighbours are fetched
    // once per logical qubit, and per-candidate accumulation keeps the
    // historical m-order.  The cost is D(mp, p): hop distances are
    // exactly symmetric, noise distances only up to rounding (each
    // Dijkstra row sums its paths from its own source), and a row never
    // depends on the provider's byte budget, so neither does best_p.
    std::vector<DistanceRow> placed_rows;
    for (int l = 0; l < num_logical_; ++l) {
        if (l2p[static_cast<std::size_t>(l)] >= 0)
            continue;
        placed_rows.clear();
        for (int m : nbrs[static_cast<std::size_t>(l)]) {
            int mp = l2p[static_cast<std::size_t>(m)];
            if (mp >= 0)
                placed_rows.push_back(dist_->row(mp));
        }
        int best_p = -1;
        double best_cost = std::numeric_limits<double>::infinity();
        for (int p = 0; p < np; ++p) {
            if (used[static_cast<std::size_t>(p)])
                continue;
            double cost = 0.0;
            for (const DistanceRow &r : placed_rows)
                cost += r[p];
            if (cost < best_cost) {
                best_cost = cost;
                best_p = p;
            }
        }
        l2p[static_cast<std::size_t>(l)] = best_p;
        used[static_cast<std::size_t>(best_p)] = true;
    }
    return Layout::from_l2p(l2p, np);
}

Layout
LayoutSearch::degree_seed_layout() const
{
    // Rank-match interaction degree against coupling degree: the
    // busiest logical qubits land on the best-connected physical ones.
    // Pure function of (circuit, coupling); ties break on index.
    const int np = coupling_.num_qubits();
    std::vector<int> ldeg(static_cast<std::size_t>(num_logical_), 0);
    for (auto [a, b] : interaction_edges(fwd_)) {
        ++ldeg[static_cast<std::size_t>(a)];
        ++ldeg[static_cast<std::size_t>(b)];
    }
    std::vector<int> lorder(static_cast<std::size_t>(num_logical_));
    std::vector<int> porder(static_cast<std::size_t>(np));
    for (int l = 0; l < num_logical_; ++l)
        lorder[static_cast<std::size_t>(l)] = l;
    for (int p = 0; p < np; ++p)
        porder[static_cast<std::size_t>(p)] = p;
    std::sort(lorder.begin(), lorder.end(), [&](int a, int b) {
        int da = ldeg[static_cast<std::size_t>(a)];
        int db = ldeg[static_cast<std::size_t>(b)];
        return da != db ? da > db : a < b;
    });
    std::sort(porder.begin(), porder.end(), [&](int a, int b) {
        auto da = coupling_.neighbors(a).size();
        auto db = coupling_.neighbors(b).size();
        return da != db ? da > db : a < b;
    });
    std::vector<int> l2p(static_cast<std::size_t>(num_logical_), -1);
    for (int i = 0; i < num_logical_; ++i)
        l2p[static_cast<std::size_t>(lorder[static_cast<std::size_t>(i)])] =
            porder[static_cast<std::size_t>(i)];
    return Layout::from_l2p(l2p, np);
}

Layout
LayoutSearch::seed_layout(int trial, unsigned seed,
                          TrialSeedKind &kind) const
{
    // Heuristic seeds exist to raise the ceiling of what racing can
    // find; they only occupy trials 1 and 2 when there IS a race, so a
    // single-trial search remains the historical random-seed traversal.
    // (Too-wide circuits fall through to Layout::random's clear error.)
    if (trials_requested_ > 1 && num_logical_ <= coupling_.num_qubits()) {
        if (trial == 1) {
            kind = TrialSeedKind::kEmbedding;
            return embedding_seed_layout();
        }
        if (trial == 2) {
            kind = TrialSeedKind::kDegree;
            return degree_seed_layout();
        }
    }
    kind = TrialSeedKind::kRandom;
    std::mt19937 rng(seed);
    // Layout::random rejects circuits wider than the device.
    return Layout::random(num_logical_, coupling_.num_qubits(), rng);
}

void
LayoutSearch::run_trial(int trial, int worker)
{
    LayoutTrial &out = trials_[static_cast<std::size_t>(trial)];
    out.trial = trial;
    out.seed = derive_trial_seed(opts_.seed, trial);

    // Cooperative deadline poll at the trial boundary, on whichever
    // worker runs the trial: an expired budget skips the whole trial,
    // which stays unconsumed and never enters the keep-min.
    // Deadline-free runs (max()) never take the branch, keeping the
    // race bit-identical.
    if (std::chrono::steady_clock::now() >= deadline_)
        return;
    failpoint::hit("layout.trial");
    // One span per CONSUMED trial (deadline-skipped trials record
    // nothing); helper tasks carry the owning request's tracer through
    // submit(), so concurrent requests never mix spans.
    obs::TraceSpan span("layout_trial",
                        &obs::StackMetrics::get().layout_trial_us);

    WorkerCtx &c = ctx(worker);
    Layout layout = seed_layout(trial, out.seed, out.kind);

    // Reverse-traversal refinement (SABRE): alternate forward and
    // backward routing, carrying the final layout across passes.
    for (int iter = 0; iter < iterations_; ++iter) {
        layout = c.fwd.route_to_layout(layout);
        layout = c.rev.route_to_layout(layout);
    }

    // Score the refined layout with one forward pass over the FULL
    // circuit whenever something consumes the result: a race needs the
    // (swaps, depth) key to decide, retention needs the routed circuit
    // itself (there the pass IS the downstream route, never wasted
    // work).  The single-trial pure-layout path skips it outright so
    // sabre_initial_layout callers keep the historical cost.
    RoutingResult scored;
    if (trials_.size() > 1 || retain_) {
        scored = score_router(c).run(layout);
        out.swaps = scored.stats.num_swaps;
        out.depth = scored.circuit.depth();
    }
    out.layout = std::move(layout);
    out.consumed = true;

    // Keep-min: this trial becomes the winner iff its (swaps, depth,
    // trial) key is smaller.  The key order is total and independent of
    // arrival order, so the winner — and in retain mode its routed
    // pass, the only one kept alive — is the same for every thread
    // count.
    std::lock_guard<std::mutex> lock(best_mu_);
    if (best_trial_ >= 0) {
        const LayoutTrial &best =
            trials_[static_cast<std::size_t>(best_trial_)];
        if (std::tie(best.swaps, best.depth, best.trial) <
            std::tie(out.swaps, out.depth, out.trial))
            return;
    }
    best_trial_ = trial;
    if (retain_)
        retained_ = std::move(scored);
}

LayoutSearchResult
LayoutSearch::run(std::chrono::steady_clock::time_point deadline)
{
    deadline_ = deadline;
    const int trials = std::max(1, trials_requested_);
    trials_.assign(static_cast<std::size_t>(trials), LayoutTrial{});
    best_trial_ = -1;

    // Fan out only for a top-level race: a single trial, a caller that
    // is itself a task (every served request, sweep job and CallerSlot
    // holder) and layout_threads == 1 all run on the calling thread
    // without touching the shared pool, so transpile() with default
    // options never spawns a process-wide worker pool as a side effect.
    int cap = 1;
    if (trials > 1 && opts_.layout_threads != 1 && !Scheduler::in_task()) {
        Scheduler &sched = Scheduler::shared();
        // An explicit layout_threads request first grows the pool
        // (hardware_concurrency under-reports in cgroup-limited
        // containers); 0 takes the pool as it is.
        cap = opts_.layout_threads;
        if (cap > 0)
            sched.ensure_workers(std::min(cap, trials));
        else
            cap = sched.num_threads() + 1;
        cap = std::min(cap, trials);
    }
    if (workers_.size() < static_cast<std::size_t>(cap))
        workers_.resize(static_cast<std::size_t>(cap));

    // Slot 0 (the caller) and slots 1..cap-1 (helper tasks) drain one
    // trial counter.  Trials derive everything from their index, so
    // which slot runs which trial never shows in the result.
    std::atomic<int> next{0};
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(trials));
    auto drain = [&](int worker) {
        for (int t; (t = next.fetch_add(1)) < trials;) {
            try {
                run_trial(t, worker);
            } catch (...) {
                errors[static_cast<std::size_t>(t)] = std::current_exception();
            }
        }
    };
    std::mutex join_mu;
    std::condition_variable join_cv;
    int helpers_left = cap - 1; // guarded by join_mu
    std::vector<Scheduler::JobHandle> helpers;
    for (int w = 1; w < cap; ++w)
        helpers.push_back(Scheduler::shared().submit([&, w] {
            drain(w);
            std::lock_guard<std::mutex> lk(join_mu);
            if (--helpers_left == 0)
                join_cv.notify_all();
        }));
    drain(0);
    // Every trial has been claimed: withdraw the helpers no worker has
    // picked up yet, then wait for the rest to finish their trials.
    int withdrawn = 0;
    for (const Scheduler::JobHandle &h : helpers)
        withdrawn += h.cancel() ? 1 : 0;
    {
        std::unique_lock<std::mutex> lk(join_mu);
        helpers_left -= withdrawn;
        join_cv.wait(lk, [&] { return helpers_left == 0; });
    }

    // The lowest-index failure wins, whichever slot ran it.
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    if (best_trial_ < 0)
        throw TranspileDeadlineExceeded(
            "transpile deadline exceeded before any layout trial "
            "completed");

    int consumed = 0;
    for (const LayoutTrial &t : trials_)
        if (t.consumed)
            ++consumed;

    LayoutSearchResult res;
    res.best_trial = best_trial_;
    res.initial = trials_[static_cast<std::size_t>(best_trial_)].layout;
    res.scoring_passes = (trials > 1 || retain_) ? consumed : 0;
    res.trials_consumed = consumed;
    if (retain_)
        res.routed = std::move(retained_);
    res.trials = std::move(trials_);
    return res;
}

LayoutSearchResult
search_and_route(const QuantumCircuit &logical, const CouplingMap &coupling,
                 const DistanceProvider &dist, const RoutingOptions &opts,
                 int iterations,
                 std::chrono::steady_clock::time_point deadline)
{
    LayoutSearch search(logical, coupling, dist, opts, iterations);
    return search.run(deadline);
}

} // namespace nassc
