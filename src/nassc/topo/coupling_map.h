#ifndef NASSC_TOPO_COUPLING_MAP_H
#define NASSC_TOPO_COUPLING_MAP_H

/**
 * @file
 * Undirected device-connectivity graph.
 *
 * The map stores only the graph: sorted edges and sorted per-qubit
 * neighbor lists, so connected() is a binary search over a neighbor
 * list and a 4243-qubit heavy-hex map costs O(edges), not O(n^2).
 * All-pairs distances live in DistanceProvider, which computes rows on
 * demand; hop_row() is the independent reference BFS.
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
    CouplingMap() = default;

    /** Build from an undirected edge list (duplicates are ignored). */
    CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges);

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
        const std::vector<int> &na = nbrs_[a];
        return std::binary_search(na.begin(), na.end(), b);
    }

    const std::vector<int> &neighbors(int q) const { return nbrs_[q]; }

    /**
     * Longest shortest path, computed once at construction.  Exact up
     * to 512 qubits (the max over every hop_row(), unreachable
     * sentinel included).  Above that, a double-sweep BFS
     * lower bound (exact on trees, and on the generators shipped here
     * in practice) — its only in-pipeline use is the router's
     * forced-swap safety valve, which just needs the right order of
     * magnitude.
     */
    int diameter() const { return diameter_; }

    /** True when every qubit can reach every other. */
    bool is_connected_graph() const;

    /** Per-source hop-distance row (BFS, sentinel = num_qubits + 1). */
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
    std::vector<std::vector<int>> nbrs_;
    int diameter_ = 0;
};

} // namespace nassc

#endif // NASSC_TOPO_COUPLING_MAP_H
