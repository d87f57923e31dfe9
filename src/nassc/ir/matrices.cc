#include "nassc/ir/matrices.h"

#include <cmath>
#include <stdexcept>

#include "nassc/math/weyl.h"

namespace nassc {

Mat2
gate_matrix1(const Gate &g)
{
    switch (g.kind) {
      case OpKind::kId: return Mat2::identity();
      case OpKind::kX: return pauli_x();
      case OpKind::kY: return pauli_y();
      case OpKind::kZ: return pauli_z();
      case OpKind::kH: return hadamard();
      case OpKind::kS: return s_gate();
      case OpKind::kSdg: return sdg_gate();
      case OpKind::kT: return t_gate();
      case OpKind::kTdg: return tdg_gate();
      case OpKind::kSX: return sx_gate();
      case OpKind::kSXdg: return sxdg_gate();
      case OpKind::kRX: return rx_gate(g.params[0]);
      case OpKind::kRY: return ry_gate(g.params[0]);
      case OpKind::kRZ: return rz_gate(g.params[0]);
      case OpKind::kP: return phase_gate(g.params[0]);
      case OpKind::kU: return u3_gate(g.params[0], g.params[1], g.params[2]);
      default:
        throw std::invalid_argument(std::string("no 1q matrix for ") +
                                    op_name(g.kind));
    }
}

Mat4
controlled_mat(const Mat2 &u)
{
    // Basis index (t << 1) | c; control c = bit 0.
    Mat4 m;
    m(0, 0) = 1.0;
    m(2, 2) = 1.0;
    m(1, 1) = u(0, 0);
    m(1, 3) = u(0, 1);
    m(3, 1) = u(1, 0);
    m(3, 3) = u(1, 1);
    return m;
}

Mat4
gate_matrix2(const Gate &g)
{
    switch (g.kind) {
      case OpKind::kCX: return cx_mat();
      case OpKind::kCY: return controlled_mat(pauli_y());
      case OpKind::kCZ: return cz_mat();
      case OpKind::kCH: return controlled_mat(hadamard());
      case OpKind::kCP: return controlled_mat(phase_gate(g.params[0]));
      case OpKind::kCRX: return controlled_mat(rx_gate(g.params[0]));
      case OpKind::kCRY: return controlled_mat(ry_gate(g.params[0]));
      case OpKind::kCRZ: return controlled_mat(rz_gate(g.params[0]));
      case OpKind::kRZZ: {
        const Cx i(0.0, 1.0);
        double t = g.params[0] / 2.0;
        Mat4 m;
        m(0, 0) = std::exp(-i * t);
        m(1, 1) = std::exp(i * t);
        m(2, 2) = std::exp(i * t);
        m(3, 3) = std::exp(-i * t);
        return m;
      }
      case OpKind::kRXX:
        // exp(-i theta/2 XX) = N(-theta/2, 0, 0).
        return canonical_gate(-g.params[0] / 2.0, 0.0, 0.0);
      case OpKind::kSwap: return swap_mat();
      case OpKind::kISwap: return iswap_mat();
      default:
        throw std::invalid_argument(std::string("no 2q matrix for ") +
                                    op_name(g.kind));
    }
}

} // namespace nassc
