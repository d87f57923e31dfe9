#include "nassc/service/distance_cache.h"

#include <chrono>
#include <cstdio>

#include "nassc/obs/trace.h"

namespace nassc {

std::string
DistanceRequest::key() const
{
    std::string k;
    if (!noise_aware) {
        k = "hops";
    } else {
        char buf[96];
        // %.17g round-trips every double, so distinct alphas never
        // share a key (and a provider).
        std::snprintf(buf, sizeof(buf), "noise:%.17g:%.17g:%.17g", alpha1,
                      alpha2, alpha3);
        k = buf;
    }
    if (row_budget_bytes != 0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "|sparse:%zu", row_budget_bytes);
        k += buf;
    }
    return k;
}

void
DistanceCache::retire_locked(const Entry &entry)
{
    using namespace std::chrono_literals;
    if (entry.future.wait_for(0s) != std::future_status::ready)
        return; // still computing; its stats never become visible
    try {
        const SharedDistanceProvider &p = entry.future.get();
        DistanceProviderStats s = p->stats();
        retired_rows_computed_ += s.rows_computed;
        retired_row_hits_ += s.row_hits;
        retired_rows_evicted_ += s.rows_evicted;
        retired_peak_bytes_ += s.peak_bytes;
    } catch (...) {
        // Failed computation: nothing to fold.
    }
}

void
DistanceCache::invalidate_locked(const std::string &backend_name)
{
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.backend_name == backend_name) {
            retire_locked(it->second);
            it = entries_.erase(it);
            ++evictions_invalidated_;
        } else {
            ++it;
        }
    }
}

SharedDistanceProvider
DistanceCache::provider(const Backend &backend,
                        const DistanceRequest &request)
{
    return provider(backend, request, backend.cache_key());
}

SharedDistanceProvider
DistanceCache::provider(const Backend &backend,
                        const DistanceRequest &request,
                        const std::string &bkey)
{
    const std::string key = bkey + "|" + request.key();

    std::promise<SharedDistanceProvider> promise;
    std::shared_future<SharedDistanceProvider> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Rotation detector: same backend name with a different
        // cache_key means the calibration (or topology) rolled — drop
        // the old generation eagerly so it cannot be served again and
        // does not leak one provider per generation.
        auto [git, inserted] = generation_.try_emplace(backend.name, bkey);
        if (!inserted && git->second != bkey) {
            invalidate_locked(backend.name);
            git->second = bkey;
        }

        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            future = it->second.future;
        } else {
            ++computations_;
            owner = true;
            future = promise.get_future().share();
            entries_.emplace(key, Entry{future, backend.name});
        }
    }

    if (owner) {
        // Compute outside the lock: other keys stay available, same-key
        // requesters block on the shared_future instead of the mutex.
        // Pure trace site: distinguishes a miss (this span appears)
        // from a hit (only distance_resolve shows) in a request trace.
        obs::TraceSpan span("distance_compute");
        try {
            if (request.noise_aware)
                promise.set_value(std::make_shared<const DistanceProvider>(
                    backend, request.alpha1, request.alpha2, request.alpha3,
                    request.row_budget_bytes));
            else
                promise.set_value(std::make_shared<const DistanceProvider>(
                    backend.coupling, request.row_budget_bytes));
        } catch (...) {
            promise.set_exception(std::current_exception());
            // Evict so a later request can retry; waiters already holding
            // the future still see the exception.
            std::lock_guard<std::mutex> lock(mu_);
            entries_.erase(key);
        }
    }

    return future.get();
}

DistanceCache::Stats
DistanceCache::stats() const
{
    using namespace std::chrono_literals;
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.computations = computations_;
    s.hits = hits_;
    s.entries = entries_.size();
    s.evictions_invalidated = evictions_invalidated_;
    s.rows_computed = retired_rows_computed_;
    s.row_hits = retired_row_hits_;
    s.rows_evicted = retired_rows_evicted_;
    s.row_bytes_peak = retired_peak_bytes_;
    for (const auto &[key, entry] : entries_) {
        if (entry.future.wait_for(0s) != std::future_status::ready)
            continue;
        try {
            DistanceProviderStats ps = entry.future.get()->stats();
            s.rows_computed += ps.rows_computed;
            s.row_hits += ps.row_hits;
            s.rows_evicted += ps.rows_evicted;
            s.row_bytes += ps.resident_bytes;
            s.row_bytes_peak += ps.peak_bytes;
        } catch (...) {
            // Failed entry mid-eviction; skip.
        }
    }
    return s;
}

DistanceCache &
DistanceCache::global()
{
    static DistanceCache cache;
    return cache;
}

} // namespace nassc
