#ifndef NASSC_TOPO_DISTANCE_MATRIX_H
#define NASSC_TOPO_DISTANCE_MATRIX_H

/**
 * @file
 * Flat row-major all-pairs distance matrix.
 *
 * The routers read D[p][q] in their innermost scoring loop, so the
 * storage is a single contiguous std::vector<double> with a row stride
 * instead of a vector-of-vectors: one indirection, no per-row
 * allocations, and adjacent columns share cache lines.  operator[]
 * returns a row pointer so existing `d[i][j]` call sites keep working.
 */

#include <cstddef>
#include <vector>

namespace nassc {

/** All-pairs distances, indexed [physical][physical]. */
class DistanceMatrix
{
  public:
    DistanceMatrix() = default;

    /** n x n matrix filled with `fill`. */
    explicit DistanceMatrix(int n, double fill = 0.0)
        : n_(n), data_(static_cast<std::size_t>(n) * n, fill)
    {
    }

    /** Number of rows (= columns = physical qubits). */
    int num_qubits() const { return n_; }

    bool empty() const { return n_ == 0; }

    double operator()(int i, int j) const { return data_[idx(i, j)]; }
    double &operator()(int i, int j) { return data_[idx(i, j)]; }

    /** Row pointer; enables d[i][j] and row-contiguous scans. */
    const double *operator[](int i) const { return data_.data() + idx(i, 0); }
    double *operator[](int i) { return data_.data() + idx(i, 0); }

    /** Exact element-wise equality (used by cache tests). */
    friend bool
    operator==(const DistanceMatrix &a, const DistanceMatrix &b)
    {
        return a.n_ == b.n_ && a.data_ == b.data_;
    }

    friend bool
    operator!=(const DistanceMatrix &a, const DistanceMatrix &b)
    {
        return !(a == b);
    }

  private:
    std::size_t
    idx(int i, int j) const
    {
        return static_cast<std::size_t>(i) * n_ + j;
    }

    int n_ = 0;
    std::vector<double> data_;
};

} // namespace nassc

#endif // NASSC_TOPO_DISTANCE_MATRIX_H
