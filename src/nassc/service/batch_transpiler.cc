#include "nassc/service/batch_transpiler.h"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "nassc/ir/fnv1a.h"

namespace nassc {

unsigned
derive_job_seed(unsigned base_seed, const std::string &tag, unsigned job_seed)
{
    // FNV-1a over (base_seed, tag, job_seed), folded to 32 bits.  Cheap,
    // stable across platforms, and independent of submission order.
    Fnv1a mix;
    mix.u32(base_seed);
    mix.str(tag);
    mix.u32(job_seed);
    return mix.fold32();
}

BatchTranspiler::BatchTranspiler(BatchOptions options)
    : options_(std::move(options)), cache_(options_.cache),
      scheduler_(options_.scheduler)
{
    if (!cache_)
        cache_ = std::make_shared<DistanceCache>();
}

Scheduler &
BatchTranspiler::scheduler() const
{
    return scheduler_ ? *scheduler_ : Scheduler::shared();
}

DistanceCache &
BatchTranspiler::distance_cache() const
{
    return *cache_;
}

int
BatchTranspiler::num_threads_for(std::size_t jobs) const
{
    int n = options_.num_threads;
    if (n <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        n = hw ? static_cast<int>(hw) : 1;
    }
    if (static_cast<std::size_t>(n) > jobs)
        n = static_cast<int>(jobs);
    return n < 1 ? 1 : n;
}

TranspileOptions
BatchTranspiler::effective_options(const TranspileJob &job) const
{
    TranspileOptions opts = job.options;
    if (options_.derive_seeds)
        opts.seed =
            derive_job_seed(options_.base_seed, job.tag, job.options.seed);
    return opts;
}

BatchReport
BatchTranspiler::run(const std::vector<TranspileJob> &jobs) const
{
    auto t0 = std::chrono::steady_clock::now();
    BatchReport report;
    report.results.resize(jobs.size());

    const std::size_t cache_computations_before =
        cache_->stats().computations;

    // Each job writes into its own submission-index slot, so results
    // land in submission order no matter which worker stole them, and
    // every error is captured into the slot rather than escaping (the
    // scheduler would rethrow otherwise).
    auto run_job = [&](std::size_t i, int /*worker*/) {
        const TranspileJob &job = jobs[i];
        JobResult &out = report.results[i];
        out.index = i;
        out.tag = job.tag;
        try {
            if (!job.backend)
                throw std::invalid_argument("job has no backend");
            TranspileOptions opts = effective_options(job);
            out.seed_used = opts.seed;
            out.result = transpile(job.circuit, *job.backend, opts, *cache_);
            out.ok = true;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        } catch (...) {
            out.ok = false;
            out.error = "unknown exception";
        }
    };

    // Grow the pool up to the requested cap first: an explicit
    // --threads N must deliver N-way parallelism even where
    // hardware_concurrency() under-reports (cgroup-limited containers).
    const int cap = num_threads_for(jobs.size());
    scheduler().ensure_workers(cap);
    scheduler().parallel_for(jobs.size(), run_job, cap);

    for (const JobResult &r : report.results) {
        (r.ok ? report.num_ok : report.num_failed)++;
        if (!r.ok)
            continue;
        if (r.result.reused_search_route)
            ++report.num_route_reused;
        report.full_route_passes += r.result.full_route_passes;
    }
    report.distance_computations =
        cache_->stats().computations - cache_computations_before;
    auto t1 = std::chrono::steady_clock::now();
    report.seconds = std::chrono::duration<double>(t1 - t0).count();
    return report;
}

} // namespace nassc
