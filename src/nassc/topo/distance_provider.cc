#include "nassc/topo/distance_provider.h"

#include <algorithm>
#include <functional>
#include <malloc.h>
#include <queue>
#include <utility>

namespace nassc {

void
DistanceProvider::init_adjacency(const CouplingMap &cm)
{
    n_ = cm.num_qubits();
    row_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (int q = 0; q < n_; ++q)
        row_off_[q + 1] =
            row_off_[q] + static_cast<int>(cm.neighbors(q).size());
    adj_.resize(row_off_[n_]);
    for (int q = 0; q < n_; ++q)
        std::copy(cm.neighbors(q).begin(), cm.neighbors(q).end(),
                  adj_.begin() + row_off_[q]);
    rows_.assign(n_, nullptr);
    lru_pos_.assign(n_, lru_.end());
}

DistanceProvider::DistanceProvider(const CouplingMap &cm,
                                   std::size_t row_budget_bytes)
    : noise_(false), budget_(row_budget_bytes)
{
    init_adjacency(cm);
}

DistanceProvider::DistanceProvider(const Backend &backend, double alpha1,
                                   double alpha2, double alpha3,
                                   std::size_t row_budget_bytes)
    : noise_(true), budget_(row_budget_bytes)
{
    const CouplingMap &cm = backend.coupling;
    init_adjacency(cm);

    // Expand the per-edge eq. 3 weights into the CSR layout so a
    // Dijkstra relaxation is one indexed read.  Parallel edges cannot
    // occur (CouplingMap dedups), so a plain per-edge assignment works.
    std::vector<double> weights =
        noise_edge_weights(backend, alpha1, alpha2, alpha3);
    w_.assign(adj_.size(), 0.0);
    std::vector<int> cursor(row_off_.begin(), row_off_.end() - 1);
    for (std::size_t k = 0; k < cm.edges().size(); ++k) {
        auto [a, b] = cm.edges()[k];
        // neighbors() lists are sorted, matching sorted edges() order
        // per source, so cursors fill each CSR row in ascending order.
        while (adj_[cursor[a]] != b)
            ++cursor[a];
        w_[cursor[a]] = weights[k];
        int pos = row_off_[b];
        while (adj_[pos] != a)
            ++pos;
        w_[pos] = weights[k];
    }
}

DistanceProvider::~DistanceProvider()
{
    // A freed row stays in the malloc arena of the worker that routed
    // it.  Untrimmed, the next provider's rows, routed on another
    // worker, stack on top: ~100 MB more peak RSS at 4k qubits.
#ifdef __GLIBC__
    if (stats_.resident_bytes >= (std::size_t{1} << 20)) {
        rows_.clear();
        malloc_trim(0);
    }
#endif
}

std::vector<double>
DistanceProvider::compute_row(int src) const
{
    std::vector<double> d;
    if (!noise_) {
        // BFS; identical values (and unreachable sentinel n + 1) to
        // CouplingMap::hop_row().
        const double inf = n_ + 1;
        d.assign(n_, inf);
        d[src] = 0.0;
        std::queue<int> q;
        q.push(src);
        while (!q.empty()) {
            int u = q.front();
            q.pop();
            for (int k = row_off_[u]; k < row_off_[u + 1]; ++k) {
                int v = adj_[k];
                if (d[v] > d[u] + 1.0) {
                    d[v] = d[u] + 1.0;
                    q.push(v);
                }
            }
        }
        return d;
    }

    // Per-source Dijkstra over the eq. 3 edge weights (non-negative by
    // construction).  Lazy deletion via the done[] marks.
    const double inf = 1e18;
    d.assign(n_, inf);
    d[src] = 0.0;
    using Item = std::pair<double, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    pq.push({0.0, src});
    std::vector<char> done(n_, 0);
    while (!pq.empty()) {
        auto [du, u] = pq.top();
        pq.pop();
        if (done[u])
            continue;
        done[u] = 1;
        for (int k = row_off_[u]; k < row_off_[u + 1]; ++k) {
            int v = adj_[k];
            double nd = du + w_[k];
            if (nd < d[v]) {
                d[v] = nd;
                pq.push({nd, v});
            }
        }
    }
    return d;
}

DistanceRow
DistanceProvider::publish(int src, std::vector<double> values) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (RowStorage &slot = rows_[src]) {
        // Lost the publish race; the winner's row is authoritative
        // (values are deterministic, so they match anyway).
        ++stats_.row_hits;
        lru_.splice(lru_.begin(), lru_, lru_pos_[src]);
        return DistanceRow{slot->data(), slot};
    }
    RowStorage stored = std::make_shared<const std::vector<double>>(
        std::move(values));
    rows_[src] = stored;
    lru_.push_front(src);
    lru_pos_[src] = lru_.begin();
    ++stats_.rows_computed;
    stats_.resident_bytes += row_bytes();
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.resident_bytes);
    // Evict LRU-last rows over budget, but never the row just
    // published (a budget smaller than one row must still make
    // progress).  Pinned handles keep evicted storage alive for their
    // holders; the provider just forgets it.
    if (budget_ != 0) {
        while (stats_.resident_bytes > budget_ && lru_.size() > 1) {
            int victim = lru_.back();
            lru_.pop_back();
            lru_pos_[victim] = lru_.end();
            rows_[victim] = nullptr;
            stats_.resident_bytes -= row_bytes();
            ++stats_.rows_evicted;
        }
    }
    return DistanceRow{stored->data(), stored};
}

DistanceRow
DistanceProvider::row(int src) const
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (RowStorage &slot = rows_[src]) {
            ++stats_.row_hits;
            lru_.splice(lru_.begin(), lru_, lru_pos_[src]);
            return DistanceRow{slot->data(), slot};
        }
    }
    // Compute outside the lock; racing threads may duplicate the work
    // but publish() installs exactly one result.
    return publish(src, compute_row(src));
}

DistanceProviderStats
DistanceProvider::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

DistanceProvider
noise_aware_distance(const Backend &backend, double alpha1, double alpha2,
                     double alpha3)
{
    return DistanceProvider(backend, alpha1, alpha2, alpha3);
}

DistanceProvider
hop_distance(const CouplingMap &cm)
{
    return DistanceProvider(cm);
}

} // namespace nassc
