#ifndef NASSC_TOPO_COUPLING_MAP_H
#define NASSC_TOPO_COUPLING_MAP_H

/**
 * @file
 * Undirected device-connectivity graph with all-pairs hop distances.
 *
 * Small maps (n <= dense_limit, default kDenseDistanceLimit) keep the
 * historical dense structures: an adjacency matrix and an eagerly
 * computed all-pairs BFS table, so connected()/distance() are O(1) and
 * behave bit-identically to every prior release.  Above the limit both
 * O(n^2) structures are skipped — connected() binary-searches the
 * sorted neighbor list and distance() runs an on-demand BFS — which is
 * what makes 1000+-qubit heavy-hex/grid-of-grids devices constructible
 * at all (a 4243-qubit map would otherwise eat ~18M adjacency bits plus
 * 72 MB of distance ints before the router ever ran).
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace nassc {

/** Qubit connectivity of a backend. */
class CouplingMap
{
  public:
    /**
     * Largest register for which the dense adjacency matrix and eager
     * all-pairs distance table are built.  512 qubits keeps every
     * Table-I device (and anything near it) on the historical dense
     * path while capping the tables at ~2 MB.
     */
    static constexpr int kDenseDistanceLimit = 512;

    CouplingMap() = default;

    /** Build from an undirected edge list (duplicates are ignored). */
    CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges,
                int dense_limit = kDenseDistanceLimit);

    int num_qubits() const { return num_qubits_; }

    /** Unique undirected edges with a < b. */
    const std::vector<std::pair<int, int>> &edges() const { return edges_; }

    /** Index of edge {a, b} (either order) in edges(), or -1. */
    int edge_index(int a, int b) const
    {
        const std::pair<int, int> e(std::min(a, b), std::max(a, b));
        auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
        if (it == edges_.end() || *it != e)
            return -1;
        return static_cast<int>(it - edges_.begin());
    }

    bool connected(int a, int b) const
    {
        if (!adj_.empty())
            return adj_[a][b];
        const std::vector<int> &na = nbrs_[a];
        return std::binary_search(na.begin(), na.end(), b);
    }

    const std::vector<int> &neighbors(int q) const { return nbrs_[q]; }

    /**
     * Hop distance.  O(1) from the dense table when materialized;
     * an on-demand early-exit BFS otherwise.  Unreachable pairs report
     * the num_qubits + 1 sentinel in both modes.
     */
    int distance(int a, int b) const;

    /** True when the eager dense distance table was built. */
    bool has_dense_distances() const { return !dist_.empty(); }

    /**
     * Longest shortest path.  Exact in dense mode; above the dense
     * limit a double-sweep BFS lower bound (exact on trees, and on the
     * generators shipped here in practice) — its only in-pipeline use
     * is the router's forced-swap safety valve, which just needs the
     * right order of magnitude.
     */
    int diameter() const;

    /** True when every qubit can reach every other. */
    bool is_connected_graph() const;

    /** Per-source hop-distance row (BFS), usable in either mode. */
    std::vector<int> hop_row(int src) const;

    /**
     * Stable FNV-1a hash of (num_qubits, edge list).  Two maps with the
     * same fingerprint have identical hop-distance matrices; used by
     * DistanceCache keys so caches can outlive any one Backend value.
     */
    std::uint64_t fingerprint() const;

  private:
    int num_qubits_ = 0;
    std::vector<std::pair<int, int>> edges_;
    std::vector<std::vector<bool>> adj_;  ///< empty above dense limit
    std::vector<std::vector<int>> nbrs_;
    std::vector<std::vector<int>> dist_; ///< empty above dense limit
};

} // namespace nassc

#endif // NASSC_TOPO_COUPLING_MAP_H
