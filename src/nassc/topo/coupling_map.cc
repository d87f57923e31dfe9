#include "nassc/topo/coupling_map.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "nassc/ir/fnv1a.h"

namespace nassc {

namespace {

/** Largest register whose diameter is exact (one BFS per qubit). */
constexpr int kExactDiameterLimit = 512;

/** CouplingMap::diameter(): exact up to kExactDiameterLimit qubits,
 *  a double sweep above. */
int
diameter_of(const CouplingMap &cm)
{
    const int n = cm.num_qubits();
    if (n <= kExactDiameterLimit) {
        int d = 0;
        for (int i = 0; i < n; ++i)
            for (int v : cm.hop_row(i))
                d = std::max(d, v);
        return d;
    }
    // Double-sweep pseudo-diameter: BFS from 0, then BFS from the
    // farthest reachable qubit; exact on trees and a lower bound in
    // general (unreachable sentinels are ignored here — a disconnected
    // graph reports the largest eccentricity seen within 0's component).
    auto farthest = [&cm, n](int src, int &best_d) {
        std::vector<int> row = cm.hop_row(src);
        int best = src;
        best_d = 0;
        for (int i = 0; i < n; ++i)
            if (row[i] <= n && row[i] > best_d) {
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

} // namespace

CouplingMap::CouplingMap(int num_qubits,
                         std::vector<std::pair<int, int>> edges)
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

    diameter_ = diameter_of(*this);
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

bool
CouplingMap::is_connected_graph() const
{
    if (num_qubits_ == 0)
        return true;
    for (int d : hop_row(0))
        if (d > num_qubits_)
            return false;
    return true;
}

} // namespace nassc
