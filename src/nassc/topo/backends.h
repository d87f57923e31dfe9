#ifndef NASSC_TOPO_BACKENDS_H
#define NASSC_TOPO_BACKENDS_H

/**
 * @file
 * Device models used in the paper's evaluation (Sec. V, Fig. 10):
 * the 27-qubit heavy-hex `ibmq_montreal`, a 25-qubit linear nearest
 * neighbour chain, a 5x5 2D grid, and a fully connected reference.
 *
 * Real calibration data is not redistributable, so each backend carries a
 * deterministic synthetic calibration whose ranges mimic published
 * Falcon-generation numbers (CX error 0.5-3%, 1q error 0.02-0.1%,
 * readout 1-4%).  The HA noise-aware distances (paper eq. 3,
 * topo/distance_provider.h) are derived from it.
 */

#include <map>
#include <string>

#include "nassc/topo/coupling_map.h"

namespace nassc {

/** Synthetic device calibration. */
struct Calibration
{
    std::vector<double> error_1q;      ///< per-qubit 1q gate error
    std::vector<double> readout_error; ///< per-qubit readout flip prob
    /** Per-edge CX error, keyed by (min, max) qubit pair. */
    std::map<std::pair<int, int>, double> error_cx;
    /** Per-edge CX duration in ns. */
    std::map<std::pair<int, int>, double> duration_cx;

    double cx_error(int a, int b) const;
};

/** A topology plus its calibration. */
struct Backend
{
    std::string name;
    CouplingMap coupling;
    Calibration calibration;

    /**
     * Stable identity for caching derived per-backend data (distance
     * matrices, layouts): name plus fingerprints of the topology and
     * calibration, so editing either produces a distinct key.
     *
     * Hashing is O(device): every edge and calibration entry.  A
     * TranspileService therefore hashes each Backend object once and
     * reuses the key for as long as that object lives, so a Backend
     * must not be modified while a service holds it.  To rotate a
     * calibration, pass a new object under the same name (as
     * NasscServer::register_backend does).
     */
    std::string cache_key() const;
};

/** 27-qubit heavy-hex lattice of ibmq_montreal. */
Backend montreal_backend();

/** Linear nearest-neighbour chain. */
Backend linear_backend(int n = 25);

/** rows x cols 2D grid. */
Backend grid_backend(int rows = 5, int cols = 5);

/** Fully connected device (routing becomes a no-op). */
Backend fully_connected_backend(int n);

/**
 * Parameterized IBM-style heavy-hex lattice of distance `d` (odd,
 * >= 3): d rows of 2d+1 qubits connected in chains, with degree-2
 * bridge qubits between adjacent rows every four columns, offset by
 * two columns on alternating rows.  Qubit counts land on the published
 * device generations: d=7 -> 129 (~Eagle 127), d=13 -> 435
 * (~Osprey 433), d=21 -> 1123 (~Condor 1121), d=41 -> 4243.
 * Throws std::invalid_argument when d is even or < 3 (an even
 * distance has no heavy-hex unit cell and silently yields a
 * disconnected lattice).
 */
Backend heavy_hex_backend(int distance);

/**
 * Grid of grids: tiles_r x tiles_c tiles, each a tile_rows x tile_cols
 * 2D grid, with a single bridge edge between the middles of facing
 * tile borders — the sparse-interconnect multi-chip-module shape.
 * All four parameters must be >= 1 (throws std::invalid_argument
 * otherwise; zero tiles would silently produce an empty or
 * disconnected map).
 */
Backend grid_of_grids_backend(int tiles_r, int tiles_c, int tile_rows,
                              int tile_cols);

/**
 * Per-edge HA weights (paper eq. 3) in coupling.edges() order:
 * alpha1 * eps_hat + alpha2 * T_hat + alpha3 with eps/T normalized by
 * their maxima.  The per-source Dijkstra rows of the noise metric
 * (topo/distance_provider.h) expand these to all pairs.
 */
std::vector<double> noise_edge_weights(const Backend &backend, double alpha1,
                                       double alpha2, double alpha3);

} // namespace nassc

#endif // NASSC_TOPO_BACKENDS_H
