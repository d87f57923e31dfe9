#include "nassc/topo/coupling_map.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "nassc/ir/fnv1a.h"

namespace nassc {

CouplingMap::CouplingMap(int num_qubits,
                         std::vector<std::pair<int, int>> edges,
                         int dense_limit)
    : num_qubits_(num_qubits)
{
    for (auto &[a, b] : edges) {
        if (a < 0 || b < 0 || a >= num_qubits || b >= num_qubits)
            throw std::out_of_range("coupling edge outside register");
        if (a == b)
            throw std::invalid_argument("self-loop in coupling map");
        if (a > b)
            std::swap(a, b);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges_ = std::move(edges);

    nbrs_.assign(num_qubits, {});
    for (auto [a, b] : edges_) {
        nbrs_[a].push_back(b);
        nbrs_[b].push_back(a);
    }
    for (auto &n : nbrs_)
        std::sort(n.begin(), n.end());

    const bool dense = num_qubits <= dense_limit;
    if (dense) {
        adj_.assign(num_qubits, std::vector<bool>(num_qubits, false));
        for (auto [a, b] : edges_)
            adj_[a][b] = adj_[b][a] = true;

        dist_.reserve(num_qubits);
        for (int s = 0; s < num_qubits; ++s)
            dist_.push_back(hop_row(s));
    }
}

std::vector<int>
CouplingMap::hop_row(int src) const
{
    const int inf = num_qubits_ + 1;
    std::vector<int> d(num_qubits_, inf);
    d[src] = 0;
    std::queue<int> q;
    q.push(src);
    while (!q.empty()) {
        int u = q.front();
        q.pop();
        for (int v : nbrs_[u]) {
            if (d[v] > d[u] + 1) {
                d[v] = d[u] + 1;
                q.push(v);
            }
        }
    }
    return d;
}

int
CouplingMap::distance(int a, int b) const
{
    if (!dist_.empty())
        return dist_[a][b];
    if (a == b)
        return 0;
    // Early-exit BFS from a.
    const int inf = num_qubits_ + 1;
    std::vector<int> d(num_qubits_, inf);
    d[a] = 0;
    std::queue<int> q;
    q.push(a);
    while (!q.empty()) {
        int u = q.front();
        q.pop();
        for (int v : nbrs_[u]) {
            if (d[v] > d[u] + 1) {
                d[v] = d[u] + 1;
                if (v == b)
                    return d[v];
                q.push(v);
            }
        }
    }
    return inf;
}

std::uint64_t
CouplingMap::fingerprint() const
{
    Fnv1a mix;
    mix.u64(static_cast<std::uint64_t>(num_qubits_));
    for (auto [a, b] : edges_) {
        mix.u64(static_cast<std::uint64_t>(a));
        mix.u64(static_cast<std::uint64_t>(b));
    }
    return mix.value();
}

int
CouplingMap::diameter() const
{
    if (!dist_.empty()) {
        int d = 0;
        for (int i = 0; i < num_qubits_; ++i)
            for (int j = 0; j < num_qubits_; ++j)
                d = std::max(d, dist_[i][j]);
        return d;
    }
    if (num_qubits_ == 0)
        return 0;
    // Double-sweep pseudo-diameter: BFS from 0, then BFS from the
    // farthest reachable qubit; exact on trees and a lower bound in
    // general (unreachable sentinels are ignored here — a disconnected
    // graph reports the largest eccentricity seen within 0's component).
    auto farthest = [this](int src, int &best_d) {
        std::vector<int> row = hop_row(src);
        int best = src;
        best_d = 0;
        for (int i = 0; i < num_qubits_; ++i)
            if (row[i] <= num_qubits_ && row[i] > best_d) {
                best_d = row[i];
                best = i;
            }
        return best;
    };
    int d1 = 0, d2 = 0;
    int far = farthest(0, d1);
    farthest(far, d2);
    return std::max(d1, d2);
}

bool
CouplingMap::is_connected_graph() const
{
    if (!dist_.empty()) {
        for (int i = 0; i < num_qubits_; ++i)
            for (int j = 0; j < num_qubits_; ++j)
                if (dist_[i][j] > num_qubits_)
                    return false;
        return true;
    }
    if (num_qubits_ == 0)
        return true;
    std::vector<int> row = hop_row(0);
    for (int i = 0; i < num_qubits_; ++i)
        if (row[i] > num_qubits_)
            return false;
    return true;
}

} // namespace nassc
