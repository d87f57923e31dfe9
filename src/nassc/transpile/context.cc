#include "nassc/transpile/context.h"

#include "nassc/ir/fnv1a.h"

namespace nassc {

TranspileContext::TranspileContext(Config config)
    : distances_(std::move(config.distances)),
      scheduler_(std::move(config.scheduler)),
      service_options_(std::move(config.service))
{
    if (!distances_) {
        // Non-owning alias of the process-wide cache: the global cache
        // outlives every context, so an empty deleter is sound.
        distances_ = std::shared_ptr<DistanceCache>(
            std::shared_ptr<void>(), &DistanceCache::global());
    }
    service_options_.distances = distances_;
    service_options_.scheduler = scheduler_;
}

Scheduler &
TranspileContext::scheduler() const
{
    return scheduler_ ? *scheduler_ : Scheduler::shared();
}

TranspileResult
TranspileContext::transpile(const QuantumCircuit &qc, const Backend &backend,
                            const TranspileOptions &opts) const
{
    return nassc::transpile(qc, backend, opts, *distances_);
}

TranspileResult
TranspileContext::optimize_only(const QuantumCircuit &qc,
                                const TranspileOptions &opts) const
{
    return nassc::optimize_only(qc, opts);
}

TranspileService &
TranspileContext::service()
{
    std::lock_guard<std::mutex> lk(service_mu_);
    if (!service_)
        service_ = std::make_unique<TranspileService>(service_options_);
    return *service_;
}

TranspileTicket
TranspileContext::submit(const QuantumCircuit &qc,
                         std::shared_ptr<const Backend> backend,
                         const TranspileOptions &opts,
                         const RequestPolicy &policy)
{
    return service().submit(qc, std::move(backend), opts, policy);
}

TranspileContext &
TranspileContext::global()
{
    static TranspileContext *ctx = new TranspileContext(Config{});
    return *ctx;
}

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

} // namespace nassc
