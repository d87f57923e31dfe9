// Tests for coupling maps, backend topologies, and distance providers.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/topo/backends.h"
#include "nassc/topo/coupling_map.h"
#include "nassc/topo/distance_provider.h"

namespace nassc {
namespace {

TEST(CouplingMap, LineDistances)
{
    Backend b = linear_backend(5);
    const CouplingMap &cm = b.coupling;
    EXPECT_EQ(cm.num_qubits(), 5);
    EXPECT_EQ(cm.edges().size(), 4u);
    EXPECT_TRUE(cm.connected(0, 1));
    EXPECT_FALSE(cm.connected(0, 2));
    EXPECT_EQ(cm.hop_row(0)[4], 4);
    EXPECT_EQ(cm.diameter(), 4);
    EXPECT_TRUE(cm.is_connected_graph());
}

TEST(CouplingMap, GridStructure)
{
    Backend b = grid_backend(5, 5);
    const CouplingMap &cm = b.coupling;
    EXPECT_EQ(cm.num_qubits(), 25);
    EXPECT_EQ(cm.edges().size(), 40u); // 2*5*4
    EXPECT_EQ(cm.hop_row(0)[24], 8);  // manhattan corner-to-corner
    EXPECT_EQ(cm.diameter(), 8);
    EXPECT_EQ(cm.neighbors(12).size(), 4u); // center has 4 neighbors
    EXPECT_EQ(cm.neighbors(0).size(), 2u);  // corner has 2
}

TEST(CouplingMap, MontrealHeavyHex)
{
    Backend b = montreal_backend();
    const CouplingMap &cm = b.coupling;
    EXPECT_EQ(cm.num_qubits(), 27);
    EXPECT_EQ(cm.edges().size(), 28u);
    EXPECT_TRUE(cm.is_connected_graph());
    // Heavy-hex degree bounds: 1..3.
    for (int q = 0; q < 27; ++q) {
        EXPECT_GE(cm.neighbors(q).size(), 1u);
        EXPECT_LE(cm.neighbors(q).size(), 3u);
    }
    // Spot-check known couplings of the Falcon lattice.
    EXPECT_TRUE(cm.connected(0, 1));
    EXPECT_TRUE(cm.connected(12, 15));
    EXPECT_TRUE(cm.connected(25, 26));
    EXPECT_FALSE(cm.connected(0, 26));
}

TEST(CouplingMap, FullyConnected)
{
    Backend b = fully_connected_backend(6);
    EXPECT_EQ(b.coupling.edges().size(), 15u);
    EXPECT_EQ(b.coupling.diameter(), 1);
}

TEST(CouplingMap, RejectsBadEdges)
{
    EXPECT_THROW(CouplingMap(3, {{0, 3}}), std::out_of_range);
    EXPECT_THROW(CouplingMap(3, {{1, 1}}), std::invalid_argument);
}

TEST(CouplingMap, DeduplicatesEdges)
{
    CouplingMap cm(3, {{0, 1}, {1, 0}, {0, 1}});
    EXPECT_EQ(cm.edges().size(), 1u);
}

TEST(HeavyHex, RejectsInvalidDistance)
{
    // An even (or tiny) distance has no heavy-hex unit cell; the
    // generator refuses instead of silently emitting a disconnected map.
    EXPECT_THROW(heavy_hex_backend(2), std::invalid_argument);
    EXPECT_THROW(heavy_hex_backend(4), std::invalid_argument);
    EXPECT_THROW(heavy_hex_backend(1), std::invalid_argument);
    EXPECT_THROW(heavy_hex_backend(0), std::invalid_argument);
    EXPECT_THROW(heavy_hex_backend(-3), std::invalid_argument);
}

TEST(HeavyHex, QubitCountsMatchDeviceGenerations)
{
    // d -> d*(2d+1) row qubits + bridge qubits; the counts land next to
    // the published Falcon/Eagle/Osprey/Condor generations.
    EXPECT_EQ(heavy_hex_backend(3).coupling.num_qubits(), 25);
    EXPECT_EQ(heavy_hex_backend(7).coupling.num_qubits(), 129);
    EXPECT_EQ(heavy_hex_backend(13).coupling.num_qubits(), 435);
    EXPECT_EQ(heavy_hex_backend(21).coupling.num_qubits(), 1123);
}

TEST(HeavyHex, ConnectedWithHeavyHexDegrees)
{
    for (int d : {3, 7, 13}) {
        const Backend b = heavy_hex_backend(d);
        EXPECT_TRUE(b.coupling.is_connected_graph()) << "d=" << d;
        for (int q = 0; q < b.coupling.num_qubits(); ++q) {
            EXPECT_GE(b.coupling.neighbors(q).size(), 1u);
            EXPECT_LE(b.coupling.neighbors(q).size(), 3u);
        }
        // Deterministic synthetic calibration covers every edge.
        for (auto e : b.coupling.edges()) {
            EXPECT_GT(b.calibration.cx_error(e.first, e.second), 0.0);
            EXPECT_GT(b.calibration.duration_cx.at(e), 0.0);
        }
    }
}

TEST(GridOfGrids, RejectsZeroParameters)
{
    EXPECT_THROW(grid_of_grids_backend(0, 2, 3, 3), std::invalid_argument);
    EXPECT_THROW(grid_of_grids_backend(2, 0, 3, 3), std::invalid_argument);
    EXPECT_THROW(grid_of_grids_backend(2, 2, 0, 3), std::invalid_argument);
    EXPECT_THROW(grid_of_grids_backend(2, 2, 3, 0), std::invalid_argument);
    EXPECT_THROW(grid_of_grids_backend(-1, 2, 3, 3),
                 std::invalid_argument);
}

TEST(GridOfGrids, TiledStructure)
{
    const Backend b = grid_of_grids_backend(2, 3, 4, 4);
    EXPECT_EQ(b.coupling.num_qubits(), 2 * 3 * 4 * 4);
    EXPECT_TRUE(b.coupling.is_connected_graph());
    // Edge count: per-tile grid edges + one bridge per adjacent tile
    // pair: 6 tiles * 24 in-tile + (2*2 + 1*3) horizontal/vertical
    // bridges.
    EXPECT_EQ(b.coupling.edges().size(), 6u * 24u + 4u + 3u);
}

/** connected() is exactly "one hop apart", and diameter() is the
 *  largest entry over every hop_row(). */
void
expect_graph_queries_match_hop_rows(const CouplingMap &cm)
{
    const int n = cm.num_qubits();
    int max_hops = 0;
    for (int i = 0; i < n; ++i) {
        const std::vector<int> row = cm.hop_row(i);
        for (int j = 0; j < n; ++j) {
            EXPECT_EQ(cm.connected(i, j), row[j] == 1)
                << "(" << i << "," << j << ")";
            max_hops = std::max(max_hops, row[j]);
        }
    }
    EXPECT_EQ(cm.diameter(), max_hops);
}

TEST(CouplingMap, ConnectedAndDiameterMatchHopRows)
{
    // 20 qubits: the exact all-rows diameter.
    expect_graph_queries_match_hop_rows(grid_backend(4, 5).coupling);
    // 1123 and 576 qubits: above 512 the diameter is a double-sweep
    // BFS, which equals the all-sources value on these generators.
    const Backend heavy_hex = heavy_hex_backend(21);
    ASSERT_EQ(heavy_hex.coupling.num_qubits(), 1123);
    expect_graph_queries_match_hop_rows(heavy_hex.coupling);
    const Backend tiles = grid_of_grids_backend(4, 4, 6, 6);
    ASSERT_EQ(tiles.coupling.num_qubits(), 576);
    expect_graph_queries_match_hop_rows(tiles.coupling);
}

TEST(Calibration, DeterministicAndInRange)
{
    Backend a = montreal_backend();
    Backend b = montreal_backend();
    for (auto e : a.coupling.edges()) {
        double err = a.calibration.cx_error(e.first, e.second);
        EXPECT_DOUBLE_EQ(err, b.calibration.cx_error(e.first, e.second));
        EXPECT_GE(err, 0.005);
        EXPECT_LE(err, 0.03);
        // Symmetric lookup.
        EXPECT_DOUBLE_EQ(err, a.calibration.cx_error(e.second, e.first));
    }
    for (int q = 0; q < 27; ++q) {
        EXPECT_GT(a.calibration.readout_error[q], 0.0);
        EXPECT_LT(a.calibration.readout_error[q], 0.05);
    }
}

TEST(Distance, HopRowsMatchCoupling)
{
    Backend b = grid_backend(3, 3);
    const DistanceProvider d = hop_distance(b.coupling);
    for (int i = 0; i < 9; ++i) {
        const DistanceRow row = d.row(i);
        const std::vector<int> ref = b.coupling.hop_row(i);
        for (int j = 0; j < 9; ++j)
            EXPECT_DOUBLE_EQ(row[j], ref[j]);
    }
}

TEST(Distance, NoiseAwareReducesToHopsWhenAlphaDistance)
{
    Backend b = linear_backend(6);
    const DistanceProvider d = noise_aware_distance(b, 0.0, 0.0, 1.0);
    for (int i = 0; i < 6; ++i) {
        const DistanceRow row = d.row(i);
        const std::vector<int> ref = b.coupling.hop_row(i);
        for (int j = 0; j < 6; ++j)
            EXPECT_NEAR(row[j], ref[j], 1e-9);
    }
}

TEST(Distance, NoiseAwarePrefersGoodEdges)
{
    // Force one terrible edge in a 3-cycle; the noise-aware distance must
    // route around it.
    Backend b;
    b.name = "tri";
    b.coupling = CouplingMap(3, {{0, 1}, {1, 2}, {0, 2}});
    b.calibration.error_1q = {1e-4, 1e-4, 1e-4};
    b.calibration.readout_error = {0.01, 0.01, 0.01};
    b.calibration.error_cx[{0, 1}] = 0.5; // terrible
    b.calibration.error_cx[{1, 2}] = 0.001;
    b.calibration.error_cx[{0, 2}] = 0.001;
    b.calibration.duration_cx[{0, 1}] = 400;
    b.calibration.duration_cx[{1, 2}] = 400;
    b.calibration.duration_cx[{0, 2}] = 400;
    // With the error term dominating, the two-hop detour through the good
    // edges beats the direct terrible edge.
    const DistanceProvider d = noise_aware_distance(b, 1.0, 0.0, 0.0);
    EXPECT_LT(d.row(0)[1], 0.99); // detour used, not the weight-1.0 edge
    EXPECT_NEAR(d.row(0)[1], d.row(0)[2] + d.row(2)[1], 1e-9);
    // With pure hop weighting the direct edge wins again.
    const DistanceProvider dh = noise_aware_distance(b, 0.0, 0.0, 1.0);
    EXPECT_NEAR(dh.row(0)[1], 1.0, 1e-9);
}

TEST(Distance, NoiseAwareSymmetric)
{
    Backend b = montreal_backend();
    const DistanceProvider d = noise_aware_distance(b);
    for (int i = 0; i < 27; ++i) {
        EXPECT_DOUBLE_EQ(d.row(i)[i], 0.0);
        for (int j = 0; j < 27; ++j)
            EXPECT_DOUBLE_EQ(d.row(i)[j], d.row(j)[i]);
    }
}

} // namespace
} // namespace nassc
