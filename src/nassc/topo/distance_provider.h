#ifndef NASSC_TOPO_DISTANCE_PROVIDER_H
#define NASSC_TOPO_DISTANCE_PROVIDER_H

/**
 * @file
 * Row-oriented access to all-pairs distances, dense or sparse.
 *
 * DistanceProvider is the only distance type the routing layers
 * accept.  A fully materialized matrix costs O(n^2) doubles per
 * (backend, metric) pair — ~8 MB at 1k qubits and 128 MB at 4k,
 * recomputed in full on every calibration rotation — so the provider
 * abstracts the storage:
 *
 *  - DenseDistanceProvider owns a flat DistanceMatrix, computed in full
 *    up front; row() hands out pointers into it.
 *  - SparseDistanceProvider computes per-source rows on demand (BFS for
 *    hop distances, Dijkstra for the HA noise-aware metric of paper
 *    eq. 3) and caches them with thread-safe publish and byte-bounded
 *    LRU eviction.  Memory scales with the rows a workload actually
 *    touches, not with n^2.
 *
 * Rows are handed out as pinned DistanceRow handles: the shared_ptr pin
 * keeps the row alive for the holder even after the provider evicts it
 * from its own cache, so a router mid-pass can never read freed memory.
 *
 * Numerical contract: dense and sparse providers are bit-identical for
 * both metrics.  The dense builders below fill every row from the same
 * per-source routine the sparse provider runs lazily (BFS for hops,
 * including the num_qubits + 1 unreachable sentinel; Dijkstra over
 * noise_edge_weights() for eq. 3), so the choice between them trades
 * memory for speed and never changes a routing decision.
 */

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "nassc/topo/backends.h"
#include "nassc/topo/coupling_map.h"
#include "nassc/topo/distance_matrix.h"

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

/** Read-only distance oracle over one (topology, metric) pair. */
class DistanceProvider
{
  public:
    virtual ~DistanceProvider();

    virtual int num_qubits() const = 0;

    /** Pinned distance row from `src` to every physical qubit. */
    virtual DistanceRow row(int src) const = 0;

    /** Single distance; sparse providers resolve it through row(i). */
    virtual double at(int i, int j) const = 0;

    virtual DistanceProviderStats stats() const = 0;
};

/** Shared read-only provider handle (what DistanceCache hands out). */
using SharedDistanceProviderPtr = std::shared_ptr<const DistanceProvider>;

/** Fully materialized provider over a flat DistanceMatrix. */
class DenseDistanceProvider final : public DistanceProvider
{
  public:
    explicit DenseDistanceProvider(DistanceMatrix matrix);

    const DistanceMatrix &matrix() const { return *matrix_; }

    int num_qubits() const override { return matrix_->num_qubits(); }
    DistanceRow row(int src) const override;
    double at(int i, int j) const override { return (*matrix_)(i, j); }
    DistanceProviderStats stats() const override;

  private:
    /** Shared so row() pins can outlive the provider (and copies of a
     *  provider share one matrix). */
    std::shared_ptr<const DistanceMatrix> matrix_;
};

/**
 * Lazy per-source-row provider.  Rows are computed on first request
 * (BFS for hops, Dijkstra over the HA edge weights for the noise
 * metric), published under a mutex, and evicted LRU-first when the
 * optional byte budget is exceeded.  The adjacency (and edge weights)
 * are copied at construction, so the provider is self-contained and
 * safe to outlive the Backend it was built from.
 *
 * Thread safety: row()/at()/stats() are safe to call concurrently.
 * Two threads racing on the same cold row may both compute it; exactly
 * one result is published (and counted) — benign duplicated work
 * instead of a lock held across the whole computation.
 */
class SparseDistanceProvider final : public DistanceProvider
{
  public:
    /** Hop-distance rows over `cm` (BFS, sentinel = num_qubits + 1). */
    explicit SparseDistanceProvider(const CouplingMap &cm,
                                    std::size_t row_budget_bytes = 0);

    /** Noise-aware rows (paper eq. 3 weights, per-source Dijkstra). */
    SparseDistanceProvider(const Backend &backend, double alpha1,
                           double alpha2, double alpha3,
                           std::size_t row_budget_bytes = 0);

    int num_qubits() const override { return n_; }
    DistanceRow row(int src) const override;
    double at(int i, int j) const override { return row(i)[j]; }
    DistanceProviderStats stats() const override;

    /** Row payload bytes one cached row costs (n * sizeof(double)). */
    std::size_t row_bytes() const
    {
        return static_cast<std::size_t>(n_) * sizeof(double);
    }

    /**
     * Uncached distance row from `src`: the routine behind row(), also
     * what the dense builders run for every source.  Touches no cache
     * state or counters.
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
 * Noise-aware all-pairs distances (paper eq. 3): edge weight
 * alpha1 * eps_hat + alpha2 * T_hat + alpha3, with eps/T normalized by
 * their maxima, expanded to all pairs by shortest path.  Every row is
 * SparseDistanceProvider::compute_row(), so the result is bitwise equal
 * to the sparse noise provider.  With (alpha1, alpha2, alpha3) =
 * (0, 0, 1) this reduces to hop distance.
 */
DenseDistanceProvider noise_aware_distance(const Backend &backend,
                                           double alpha1 = 0.5,
                                           double alpha2 = 0.0,
                                           double alpha3 = 0.5);

/** Hop distances as doubles (the SABRE default), one
 *  SparseDistanceProvider::compute_row() BFS per source. */
DenseDistanceProvider hop_distance(const CouplingMap &cm);

/**
 * Build the provider a (backend, metric) pair calls for: dense wraps
 * hop_distance()/noise_aware_distance(); sparse builds the lazy row
 * provider.
 */
SharedDistanceProviderPtr
make_distance_provider(const Backend &backend, bool noise_aware,
                       double alpha1, double alpha2, double alpha3,
                       bool sparse, std::size_t row_budget_bytes);

} // namespace nassc

#endif // NASSC_TOPO_DISTANCE_PROVIDER_H
