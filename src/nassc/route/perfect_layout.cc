#include "nassc/route/perfect_layout.h"

#include <algorithm>
#include <numeric>

namespace nassc {

std::vector<std::pair<int, int>>
interaction_edges(const QuantumCircuit &qc)
{
    std::vector<std::pair<int, int>> edges;
    for (const Gate &g : qc.gates()) {
        if (g.num_qubits() != 2 || !is_unitary_op(g.kind))
            continue;
        int a = std::min(g.qubits[0], g.qubits[1]);
        int b = std::max(g.qubits[0], g.qubits[1]);
        edges.emplace_back(a, b);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

namespace {

struct Searcher
{
    int nl, np;
    std::vector<std::vector<bool>> ladj; // logical adjacency
    const CouplingMap &cm;
    std::vector<int> order;   // logical vertices, most-constrained first
    std::vector<int> l2p;     // current assignment (-1 unassigned)
    std::vector<bool> used;   // physical occupancy
    long budget;
    // Deepest assignment seen so far (for find_partial_embedding).
    std::size_t best_depth = 0;
    std::vector<int> best_l2p;

    Searcher(const CouplingMap &coupling) : cm(coupling), budget(0) {}

    bool
    feasible(int l, int p) const
    {
        // Every already-assigned logical neighbour must sit adjacent.
        for (int m = 0; m < nl; ++m) {
            if (!ladj[l][m] || l2p[m] < 0)
                continue;
            if (!cm.connected(p, l2p[m]))
                return false;
        }
        return true;
    }

    bool
    solve(size_t depth)
    {
        if (depth > best_depth) {
            best_depth = depth;
            best_l2p = l2p;
        }
        if (depth == order.size())
            return true;
        if (--budget < 0)
            return false;
        int l = order[depth];
        for (int p = 0; p < np; ++p) {
            if (used[p] || !feasible(l, p))
                continue;
            l2p[l] = p;
            used[p] = true;
            if (solve(depth + 1))
                return true;
            used[p] = false;
            l2p[l] = -1;
            if (budget < 0)
                return false;
        }
        return false;
    }
};

} // namespace

PartialEmbedding
find_partial_embedding(const QuantumCircuit &qc, const CouplingMap &cm,
                       long budget)
{
    PartialEmbedding out;
    int nl = qc.num_qubits();
    int np = cm.num_qubits();
    out.l2p.assign(static_cast<std::size_t>(std::max(nl, 0)), -1);
    if (nl > np || nl == 0)
        return out;

    Searcher s(cm);
    s.nl = nl;
    s.np = np;
    s.budget = budget;
    s.ladj.assign(nl, std::vector<bool>(nl, false));
    std::vector<int> degree(nl, 0);
    for (auto [a, b] : interaction_edges(qc)) {
        s.ladj[a][b] = s.ladj[b][a] = true;
        ++degree[a];
        ++degree[b];
    }
    // Most-constrained first.
    s.order.resize(nl);
    std::iota(s.order.begin(), s.order.end(), 0);
    std::sort(s.order.begin(), s.order.end(),
              [&](int a, int b) { return degree[a] > degree[b]; });
    s.l2p.assign(nl, -1);
    s.used.assign(np, false);
    s.best_l2p = s.l2p;
    // No degree early-out: even when a full embedding is provably
    // impossible, the deepest partial assignment is still a useful seed.
    out.complete = s.solve(0);
    out.l2p = out.complete ? s.l2p : s.best_l2p;
    for (int p : out.l2p)
        if (p >= 0)
            ++out.assigned;
    return out;
}

} // namespace nassc
