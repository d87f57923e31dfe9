#include "nassc/topo/backends.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>

#include "nassc/ir/fnv1a.h"

namespace nassc {

namespace {

/** Deterministic synthetic calibration for a topology. */
Calibration
make_calibration(const CouplingMap &cm, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> cx_err(0.005, 0.03);
    std::uniform_real_distribution<double> one_err(0.0002, 0.001);
    std::uniform_real_distribution<double> ro_err(0.01, 0.04);
    std::uniform_real_distribution<double> dur(250.0, 550.0);

    Calibration cal;
    cal.error_1q.resize(cm.num_qubits());
    cal.readout_error.resize(cm.num_qubits());
    for (int q = 0; q < cm.num_qubits(); ++q) {
        cal.error_1q[q] = one_err(rng);
        cal.readout_error[q] = ro_err(rng);
    }
    for (auto e : cm.edges()) {
        cal.error_cx[e] = cx_err(rng);
        cal.duration_cx[e] = dur(rng);
    }
    return cal;
}

/** FNV-1a over the calibration's raw double values. */
std::uint64_t
calibration_fingerprint(const Calibration &cal)
{
    Fnv1a mix;
    for (double e : cal.error_1q)
        mix.f64(e);
    for (double e : cal.readout_error)
        mix.f64(e);
    for (const auto &[edge, err] : cal.error_cx)
        mix.f64(err);
    for (const auto &[edge, dur] : cal.duration_cx)
        mix.f64(dur);
    return mix.value();
}

} // namespace

std::string
Backend::cache_key() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "|%016llx|%016llx",
                  static_cast<unsigned long long>(coupling.fingerprint()),
                  static_cast<unsigned long long>(
                      calibration_fingerprint(calibration)));
    return name + buf;
}

double
Calibration::cx_error(int a, int b) const
{
    if (a > b)
        std::swap(a, b);
    auto it = error_cx.find({a, b});
    if (it == error_cx.end())
        throw std::out_of_range("no calibration for edge");
    return it->second;
}

Backend
montreal_backend()
{
    // Undirected edge list of the 27-qubit IBM heavy-hex lattice
    // (Falcon r4, used by ibmq_montreal / mumbai / toronto).
    std::vector<std::pair<int, int>> edges = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
        {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
        {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
        {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
        {22, 25}, {23, 24}, {24, 25}, {25, 26},
    };
    Backend b;
    b.name = "ibmq_montreal";
    b.coupling = CouplingMap(27, std::move(edges));
    b.calibration = make_calibration(b.coupling, 0x4d6f6e74); // "Mont"
    return b;
}

Backend
linear_backend(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < n; ++i)
        edges.emplace_back(i, i + 1);
    Backend b;
    b.name = "linear_" + std::to_string(n);
    b.coupling = CouplingMap(n, std::move(edges));
    b.calibration = make_calibration(b.coupling, 0x4c696e00 + n);
    return b;
}

Backend
grid_backend(int rows, int cols)
{
    std::vector<std::pair<int, int>> edges;
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                edges.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                edges.emplace_back(id(r, c), id(r + 1, c));
        }
    }
    Backend b;
    b.name = "grid_" + std::to_string(rows) + "x" + std::to_string(cols);
    b.coupling = CouplingMap(rows * cols, std::move(edges));
    b.calibration = make_calibration(b.coupling, 0x47726900 + rows * cols);
    return b;
}

Backend
fully_connected_backend(int n)
{
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            edges.emplace_back(i, j);
    Backend b;
    b.name = "full_" + std::to_string(n);
    b.coupling = CouplingMap(n, std::move(edges));
    b.calibration = make_calibration(b.coupling, 0x46756c00 + n);
    return b;
}

Backend
heavy_hex_backend(int distance)
{
    if (distance < 3 || distance % 2 == 0)
        throw std::invalid_argument(
            "heavy_hex distance must be odd and >= 3");

    const int d = distance;
    const int cols = 2 * d + 1;
    auto row_id = [cols](int r, int c) { return r * cols + c; };

    std::vector<std::pair<int, int>> edges;
    // Row chains.
    for (int r = 0; r < d; ++r)
        for (int c = 0; c + 1 < cols; ++c)
            edges.emplace_back(row_id(r, c), row_id(r, c + 1));
    // Degree-2 bridge qubits between adjacent rows, every four columns,
    // offset by two columns on alternating row pairs (the heavy-hex
    // unit cell).  Bridges are numbered after all row qubits.
    int next = d * cols;
    for (int r = 0; r + 1 < d; ++r) {
        const int offset = 2 * (r % 2);
        for (int c = offset; c < cols; c += 4) {
            int bridge = next++;
            edges.emplace_back(row_id(r, c), bridge);
            edges.emplace_back(bridge, row_id(r + 1, c));
        }
    }

    Backend b;
    b.name = "heavy_hex_d" + std::to_string(d);
    b.coupling = CouplingMap(next, std::move(edges));
    b.calibration = make_calibration(b.coupling, 0x48480000u + d); // "HH"
    return b;
}

Backend
grid_of_grids_backend(int tiles_r, int tiles_c, int tile_rows, int tile_cols)
{
    if (tiles_r < 1 || tiles_c < 1 || tile_rows < 1 || tile_cols < 1)
        throw std::invalid_argument(
            "grid_of_grids parameters must all be >= 1");

    const int tile_n = tile_rows * tile_cols;
    auto id = [&](int tr, int tc, int r, int c) {
        return (tr * tiles_c + tc) * tile_n + r * tile_cols + c;
    };

    std::vector<std::pair<int, int>> edges;
    for (int tr = 0; tr < tiles_r; ++tr) {
        for (int tc = 0; tc < tiles_c; ++tc) {
            // In-tile 2D grid.
            for (int r = 0; r < tile_rows; ++r)
                for (int c = 0; c < tile_cols; ++c) {
                    if (c + 1 < tile_cols)
                        edges.emplace_back(id(tr, tc, r, c),
                                           id(tr, tc, r, c + 1));
                    if (r + 1 < tile_rows)
                        edges.emplace_back(id(tr, tc, r, c),
                                           id(tr, tc, r + 1, c));
                }
            // One bridge edge to each right/down neighbor tile, from
            // the middle of the facing border.
            if (tc + 1 < tiles_c)
                edges.emplace_back(
                    id(tr, tc, tile_rows / 2, tile_cols - 1),
                    id(tr, tc + 1, tile_rows / 2, 0));
            if (tr + 1 < tiles_r)
                edges.emplace_back(
                    id(tr, tc, tile_rows - 1, tile_cols / 2),
                    id(tr + 1, tc, 0, tile_cols / 2));
        }
    }

    Backend b;
    b.name = "gog_" + std::to_string(tiles_r) + "x" + std::to_string(tiles_c) +
             "_" + std::to_string(tile_rows) + "x" + std::to_string(tile_cols);
    b.coupling = CouplingMap(tiles_r * tiles_c * tile_n, std::move(edges));
    b.calibration = make_calibration(
        b.coupling, 0x476f4700u + static_cast<unsigned>(tiles_r * tiles_c) *
                                      static_cast<unsigned>(tile_n));
    return b;
}

std::vector<double>
noise_edge_weights(const Backend &backend, double alpha1, double alpha2,
                   double alpha3)
{
    const CouplingMap &cm = backend.coupling;
    double max_err = 0.0, max_dur = 0.0;
    for (auto e : cm.edges()) {
        max_err = std::max(max_err, backend.calibration.error_cx.at(e));
        max_dur = std::max(max_dur, backend.calibration.duration_cx.at(e));
    }
    if (max_err <= 0.0)
        max_err = 1.0;
    if (max_dur <= 0.0)
        max_dur = 1.0;

    std::vector<double> w;
    w.reserve(cm.edges().size());
    for (auto e : cm.edges())
        w.push_back(alpha1 * backend.calibration.error_cx.at(e) / max_err +
                    alpha2 * backend.calibration.duration_cx.at(e) / max_dur +
                    alpha3);
    return w;
}

} // namespace nassc
