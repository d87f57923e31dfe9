#ifndef NASSC_SERVICE_DISTANCE_CACHE_H
#define NASSC_SERVICE_DISTANCE_CACHE_H

/**
 * @file
 * Shared read-only cache of per-backend distance providers.
 *
 * transpile() needs all-pairs distances per (backend, metric) pair:
 * plain hop counts for SABRE, or the HA noise-aware weights of paper
 * eq. 3.  Recomputing them per call is wasted work the moment two jobs
 * target the same device — which is every batch sweep in bench/.
 * DistanceCache builds each DistanceProvider exactly once, even when
 * many threads request it concurrently: the first requester installs a
 * shared_future and computes, everyone else blocks on that future and
 * shares the finished read-only provider.
 *
 * Providers compute per-source rows lazily on every device, so the
 * cache's memory footprint scales with the rows workloads actually
 * touch — the row-level counters in Stats (rows_computed / row_hits /
 * rows_evicted / row_bytes) make that pressure observable per cache
 * and through the nasscd `metrics` verb's nassc_distance_* rows.
 *
 * Calibration rotation: entries are keyed by Backend::cache_key(),
 * which fingerprints topology and calibration.  The cache additionally
 * tracks the last key seen per backend *name*; when a backend rotates
 * (same name, new key), every entry of the old generation is dropped
 * eagerly and counted in evictions_invalidated — the next request
 * recomputes only the rows it touches instead of inheriting a stale
 * matrix or leaking one per generation.
 *
 * Providers are handed out as shared_ptr<const ...> so they stay valid
 * for the duration of a routing run regardless of cache lifetime.
 */

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nassc/topo/backends.h"
#include "nassc/topo/distance_provider.h"

namespace nassc {

/** Read-only handle to a cached distance provider. */
using SharedDistanceProvider = std::shared_ptr<const DistanceProvider>;

/** Which distance metric (and row budget) to fetch for a backend. */
struct DistanceRequest
{
    bool noise_aware = false;
    /** HA edge-weight coefficients (paper eq. 3); unused for hops. */
    double alpha1 = 0.5;
    double alpha2 = 0.0;
    double alpha3 = 0.5;
    /** Row-cache byte budget; 0 = unbounded.  Rows are computed on
     *  first touch either way.  Part of the cache key: two budgets are
     *  two providers with different eviction behavior. */
    std::size_t row_budget_bytes = 0;

    static DistanceRequest hops() { return {}; }

    static DistanceRequest noise(double a1 = 0.5, double a2 = 0.0,
                                 double a3 = 0.5)
    {
        DistanceRequest r;
        r.noise_aware = true;
        r.alpha1 = a1;
        r.alpha2 = a2;
        r.alpha3 = a3;
        return r;
    }

    /** Same metric, with a row-cache byte budget (0 = unbounded). */
    DistanceRequest as_sparse(std::size_t budget_bytes = 0) const
    {
        DistanceRequest r = *this;
        r.row_budget_bytes = budget_bytes;
        return r;
    }

    /** Cache-key fragment identifying this metric + row budget. */
    std::string key() const;
};

/** Thread-safe compute-once distance-provider cache. */
class DistanceCache
{
  public:
    DistanceCache() = default;
    DistanceCache(const DistanceCache &) = delete;
    DistanceCache &operator=(const DistanceCache &) = delete;

    /**
     * Provider for (backend, request), built on first use.  Concurrent
     * requests for the same key block until the single construction
     * finishes; a construction that throws is evicted so a later call
     * can retry, and the exception propagates to every waiter.  A
     * rotated backend (same name, new cache_key) eagerly drops its old
     * generation's entries first.
     */
    SharedDistanceProvider provider(const Backend &backend,
                                    const DistanceRequest &request = {});

    /** provider() for a caller that already holds
     *  `backend_key` == backend.cache_key(), which is O(device) to hash;
     *  TranspileService hashes each backend object once and passes its
     *  key to every request on it. */
    SharedDistanceProvider provider(const Backend &backend,
                                    const DistanceRequest &request,
                                    const std::string &backend_key);

    /** One-lock snapshot of all counters.  Row counters aggregate over
     *  all resident providers plus every provider retired by
     *  rotation/invalidation, so they are monotone across generations
     *  (except row_bytes, which is resident-only). */
    struct Stats
    {
        std::size_t computations = 0; ///< providers actually computed
        std::size_t hits = 0;         ///< served from (in-flight) entries
        std::size_t entries = 0;      ///< distinct keys resident
        std::size_t evictions_invalidated = 0; ///< dropped by rotation
        std::size_t rows_computed = 0; ///< distance rows computed
        std::size_t row_hits = 0;      ///< row fetches served from cache
        std::size_t rows_evicted = 0;  ///< rows dropped by byte budgets
        std::size_t row_bytes = 0;     ///< resident row payload bytes
        std::size_t row_bytes_peak = 0; ///< sum of provider high-waters
    };

    Stats stats() const;

    /**
     * Process-wide cache used by the transpile() overload that does not
     * take an explicit cache.  Entries are keyed by Backend::cache_key(),
     * which fingerprints topology and calibration, so two backends only
     * share an entry when their distances would be identical.
     */
    static DistanceCache &global();

  private:
    struct Entry
    {
        std::shared_future<SharedDistanceProvider> future;
        std::string backend_name; ///< rotation-invalidation key
    };

    /** Drop `backend_name`'s entries; folds their row stats into the
     *  retired accumulators.  Caller holds mu_. */
    void invalidate_locked(const std::string &backend_name);

    /** Fold a ready entry's provider stats into the retired
     *  accumulators (no-op for in-flight or failed entries).  Caller
     *  holds mu_. */
    void retire_locked(const Entry &entry);

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    /** Last cache_key seen per backend name (rotation detector). */
    std::map<std::string, std::string> generation_;
    std::size_t computations_ = 0;
    std::size_t hits_ = 0;
    std::size_t evictions_invalidated_ = 0;
    /** Row stats of providers no longer resident (rotated away). */
    std::size_t retired_rows_computed_ = 0;
    std::size_t retired_row_hits_ = 0;
    std::size_t retired_rows_evicted_ = 0;
    std::size_t retired_peak_bytes_ = 0;
};

} // namespace nassc

#endif // NASSC_SERVICE_DISTANCE_CACHE_H
