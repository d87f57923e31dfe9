// Tests for the perfect-layout (subgraph isomorphism) search.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/route/perfect_layout.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/backends.h"

namespace nassc {
namespace {

TEST(InteractionEdges, DeduplicatesAndOrders)
{
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 0);
    qc.cz(2, 1);
    auto edges = interaction_edges(qc);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], std::make_pair(0, 1));
    EXPECT_EQ(edges[1], std::make_pair(1, 2));
}

TEST(PerfectLayout, ChainEmbedsInLine)
{
    Backend dev = linear_backend(6);
    QuantumCircuit qc = ghz(5); // chain interactions 0-1-2-3-4
    PartialEmbedding emb = find_partial_embedding(qc, dev.coupling);
    ASSERT_TRUE(emb.complete);
    for (auto [a, b] : interaction_edges(qc))
        EXPECT_TRUE(dev.coupling.connected(emb.l2p[a], emb.l2p[b]));
}

TEST(PerfectLayout, ChainEmbedsInMontreal)
{
    Backend dev = montreal_backend();
    QuantumCircuit qc = ghz(10);
    PartialEmbedding emb = find_partial_embedding(qc, dev.coupling);
    ASSERT_TRUE(emb.complete);
    for (auto [a, b] : interaction_edges(qc))
        EXPECT_TRUE(dev.coupling.connected(emb.l2p[a], emb.l2p[b]));
}

TEST(PerfectLayout, StarRejectsOnLine)
{
    // A degree-4 hub cannot embed into a line (max degree 2).
    Backend dev = linear_backend(8);
    QuantumCircuit qc(5);
    for (int i = 1; i < 5; ++i)
        qc.cx(0, i);
    EXPECT_FALSE(find_partial_embedding(qc, dev.coupling).complete);
}

TEST(PerfectLayout, StarEmbedsInGrid)
{
    // Degree-4 hub fits a grid center.
    Backend dev = grid_backend(3, 3);
    QuantumCircuit qc(5);
    for (int i = 1; i < 5; ++i)
        qc.cx(0, i);
    PartialEmbedding emb = find_partial_embedding(qc, dev.coupling);
    ASSERT_TRUE(emb.complete);
    EXPECT_EQ(emb.l2p[0], 4); // only the center has degree 4
}

TEST(PerfectLayout, FullGraphRejectsQuickly)
{
    // K5 interaction graph cannot embed into any sparse topology.
    Backend dev = montreal_backend();
    QuantumCircuit qc = vqe_full(5, 1, 1);
    EXPECT_FALSE(find_partial_embedding(qc, dev.coupling).complete);
}

TEST(PerfectLayout, PerfectLayoutNeedsNoSwaps)
{
    Backend dev = montreal_backend();
    QuantumCircuit qc = ghz(8);
    PartialEmbedding emb = find_partial_embedding(qc, dev.coupling);
    ASSERT_TRUE(emb.complete);
    RoutingOptions opts;
    RoutingResult res = route_circuit(
        qc, dev.coupling, hop_distance(dev.coupling),
        Layout::from_l2p(emb.l2p, dev.coupling.num_qubits()), opts);
    EXPECT_EQ(res.stats.num_swaps, 0);
}

} // namespace
} // namespace nassc
