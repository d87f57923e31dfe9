#ifndef NASSC_TOPO_DISTANCE_PROVIDER_H
#define NASSC_TOPO_DISTANCE_PROVIDER_H

/**
 * @file
 * Lazy row-oriented access to all-pairs distances.
 *
 * DistanceProvider is the only distance type the routing layers
 * accept, and it has one implementation.  A fully materialized matrix
 * costs O(n^2) doubles per (backend, metric) pair — ~8 MB at 1k qubits
 * and 128 MB at 4k, recomputed in full on every calibration rotation —
 * so the provider computes per-source rows on demand (BFS for hop
 * distances, Dijkstra for the HA noise-aware metric of paper eq. 3)
 * and caches them with thread-safe publish and optional byte-bounded
 * LRU eviction.  Memory scales with the rows a workload actually
 * touches, not with n^2.
 *
 * Rows are handed out as pinned DistanceRow handles: the shared_ptr pin
 * keeps the row alive for the holder even after the provider evicts it
 * from its own cache, so a router mid-pass can never read freed memory.
 *
 * Numerical contract: a row's values depend only on (topology, metric,
 * source), never on the byte budget or on which rows were evicted, so
 * the budget trades memory for recompute and never changes a routing
 * decision.
 */

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "nassc/topo/backends.h"
#include "nassc/topo/coupling_map.h"

namespace nassc {

/**
 * Pinned read-only distance row: data[j] is the distance from the
 * row's source qubit to physical qubit j.  The pin keeps the storage
 * alive independent of the provider's cache (eviction cannot free a
 * row someone still holds).
 */
struct DistanceRow
{
    const double *data = nullptr;
    std::shared_ptr<const void> pin;

    double operator[](int j) const { return data[j]; }
    explicit operator bool() const { return data != nullptr; }
};

/** Row-level counters of one provider (all monotone except resident). */
struct DistanceProviderStats
{
    std::size_t rows_computed = 0; ///< rows actually computed
    std::size_t row_hits = 0;      ///< row() calls served from cache
    std::size_t rows_evicted = 0;  ///< rows dropped by the byte budget
    std::size_t resident_bytes = 0; ///< row payload bytes cached now
    std::size_t peak_bytes = 0;     ///< high-water mark of resident_bytes
};

/**
 * Read-only distance oracle over one (topology, metric) pair.  Rows
 * are computed on first request (BFS for hops, Dijkstra over the HA
 * edge weights for the noise metric), published under a mutex, and
 * evicted LRU-first when the optional byte budget is exceeded.  The
 * adjacency (and edge weights) are copied at construction, so the
 * provider is self-contained and safe to outlive the Backend it was
 * built from.
 *
 * Thread safety: row()/stats() are safe to call concurrently.  Two
 * threads racing on the same cold row may both compute it; exactly one
 * result is published (and counted) — benign duplicated work instead
 * of a lock held across the whole computation.
 */
class DistanceProvider
{
  public:
    /** Hop-distance rows over `cm` (BFS, sentinel = num_qubits + 1). */
    explicit DistanceProvider(const CouplingMap &cm,
                              std::size_t row_budget_bytes = 0);

    /** Noise-aware rows (paper eq. 3 weights, per-source Dijkstra). */
    DistanceProvider(const Backend &backend, double alpha1, double alpha2,
                     double alpha3, std::size_t row_budget_bytes = 0);

    ~DistanceProvider(); ///< past 1 MiB of rows, also trims the heap

    int num_qubits() const { return n_; }

    /** Pinned distance row from `src` to every physical qubit. */
    DistanceRow row(int src) const;

    DistanceProviderStats stats() const;

    /** Row payload bytes one cached row costs (n * sizeof(double)). */
    std::size_t row_bytes() const
    {
        return static_cast<std::size_t>(n_) * sizeof(double);
    }

    /**
     * Uncached distance row from `src`: the routine behind row().
     * Touches no cache state or counters.
     */
    std::vector<double> compute_row(int src) const;

  private:
    using RowStorage = std::shared_ptr<const std::vector<double>>;

    void init_adjacency(const CouplingMap &cm);
    DistanceRow publish(int src, std::vector<double> values) const;

    int n_ = 0;
    bool noise_ = false;
    std::size_t budget_ = 0; ///< 0 = unbounded

    // CSR adjacency copied from the coupling map; w_ parallels adj_ for
    // the noise metric (empty for hops).
    std::vector<int> row_off_;
    std::vector<int> adj_;
    std::vector<double> w_;

    mutable std::mutex mu_;
    mutable std::vector<RowStorage> rows_;       ///< slot per source
    mutable std::list<int> lru_;                 ///< MRU at front
    mutable std::vector<std::list<int>::iterator> lru_pos_;
    mutable DistanceProviderStats stats_;
};

/**
 * Noise-aware distances (paper eq. 3): edge weight
 * alpha1 * eps_hat + alpha2 * T_hat + alpha3, with eps/T normalized by
 * their maxima, expanded to all pairs by shortest path.  With
 * (alpha1, alpha2, alpha3) = (0, 0, 1) this reduces to hop distance.
 */
DistanceProvider noise_aware_distance(const Backend &backend,
                                      double alpha1 = 0.5,
                                      double alpha2 = 0.0,
                                      double alpha3 = 0.5);

/** Hop distances as doubles (the SABRE default). */
DistanceProvider hop_distance(const CouplingMap &cm);

} // namespace nassc

#endif // NASSC_TOPO_DISTANCE_PROVIDER_H
