#include "nassc/synth/kak2q.h"

#include <cmath>
#include <stdexcept>

#include "nassc/ir/matrices.h"
#include "nassc/math/weyl.h"

namespace nassc {

namespace {

const double kPi = M_PI;
const double kPi2 = M_PI / 2.0;

/**
 * Append the circuit for N(pi/4, 0, 0) = e^{i pi/4 XX} on (q0, q1):
 *   (H(x)H) . (Rz(-pi/2)(x)Rz(-pi/2)) . CZ . (H(x)H)   [matrix order]
 * with CZ = (I(x)H) CX (I(x)H).  Exactly one CX.
 */
void
emit_quarter_xx(int q0, int q1, bool dagger, std::vector<Gate> &out)
{
    if (!dagger) {
        out.push_back(Gate::one_q(OpKind::kH, q0));
        out.push_back(Gate::two_q(OpKind::kCX, q0, q1));
        out.push_back(Gate::one_q(OpKind::kH, q1));
        out.push_back(Gate::one_q(OpKind::kRZ, q0, -kPi2));
        out.push_back(Gate::one_q(OpKind::kRZ, q1, -kPi2));
        out.push_back(Gate::one_q(OpKind::kH, q0));
        out.push_back(Gate::one_q(OpKind::kH, q1));
    } else {
        // Adjoint: reverse order, inverted gates.
        out.push_back(Gate::one_q(OpKind::kH, q0));
        out.push_back(Gate::one_q(OpKind::kH, q1));
        out.push_back(Gate::one_q(OpKind::kRZ, q0, kPi2));
        out.push_back(Gate::one_q(OpKind::kRZ, q1, kPi2));
        out.push_back(Gate::one_q(OpKind::kH, q1));
        out.push_back(Gate::two_q(OpKind::kCX, q0, q1));
        out.push_back(Gate::one_q(OpKind::kH, q0));
    }
}

/** Append the canonical-gate circuit for chamber coordinates (a, b, c). */
void
emit_canonical(double a, double b, double c, int q0, int q1, double tol,
               std::vector<Gate> &out)
{
    int cost = cnot_cost_coords(a, b, c, tol);
    switch (cost) {
      case 0:
        return;
      case 1:
        emit_quarter_xx(q0, q1, /*dagger=*/false, out);
        return;
      case 2:
        // N(a, b, 0) = (V^dag (x) V^dag) CX (Rx(-2a)(x)Rz(-2b)) CX (V(x)V)
        // with V = Rx(pi/2).  Circuit order is right-to-left.
        out.push_back(Gate::one_q(OpKind::kRX, q0, kPi2));
        out.push_back(Gate::one_q(OpKind::kRX, q1, kPi2));
        out.push_back(Gate::two_q(OpKind::kCX, q0, q1));
        out.push_back(Gate::one_q(OpKind::kRX, q0, -2.0 * a));
        out.push_back(Gate::one_q(OpKind::kRZ, q1, -2.0 * b));
        out.push_back(Gate::two_q(OpKind::kCX, q0, q1));
        out.push_back(Gate::one_q(OpKind::kRX, q0, -kPi2));
        out.push_back(Gate::one_q(OpKind::kRX, q1, -kPi2));
        return;
      case 3:
        // N(a,b,c) = (V^dag(x)V^dag) CX (Rx(-2a)(x)Rz(-2b))
        //            e^{-i pi/4 XX} (Rx(pi/2) on q1) (Rz(-2c) on q1) CX
        out.push_back(Gate::two_q(OpKind::kCX, q0, q1));
        out.push_back(Gate::one_q(OpKind::kRZ, q1, -2.0 * c));
        out.push_back(Gate::one_q(OpKind::kRX, q1, kPi2));
        emit_quarter_xx(q0, q1, /*dagger=*/true, out);
        out.push_back(Gate::one_q(OpKind::kRX, q0, -2.0 * a));
        out.push_back(Gate::one_q(OpKind::kRZ, q1, -2.0 * b));
        out.push_back(Gate::two_q(OpKind::kCX, q0, q1));
        out.push_back(Gate::one_q(OpKind::kRX, q0, -kPi2));
        out.push_back(Gate::one_q(OpKind::kRX, q1, -kPi2));
        return;
      default:
        throw std::logic_error("unreachable canonical cost");
    }
}

} // namespace

std::vector<Gate>
synth_2q_kak(const Mat4 &u, int q0, int q1, Basis1q basis)
{
    Kak k = kak_decompose(u);
    canonicalize(k);

    // Synthesize on local wires 0 and 1 in (q0, q1)'s order, so merging
    // the runs costs two wires however wide the device, then relabel:
    // the runs flush in wire order, so the gates come out exactly as if
    // synthesized on (q0, q1) directly.
    const int l0 = q0 < q1 ? 0 : 1, l1 = 1 - l0;
    std::vector<Gate> out;
    // The 3-CX template's 15 gates plus four local runs of at most five
    // gates (the generic ZSX form).
    out.reserve(15 + 4 * 5);
    // Right locals first (circuit order).
    synth_1q_into(out, k.k2_0, l0, basis);
    synth_1q_into(out, k.k2_1, l1, basis);
    emit_canonical(k.a, k.b, k.c, l0, l1, 1e-9, out);
    synth_1q_into(out, k.k1_0, l0, basis);
    synth_1q_into(out, k.k1_1, l1, basis);

    // Merge the 1q layers the template introduced with the KAK locals.
    optimize_1q_runs(out, 2, basis);
    int wire[2];
    wire[l0] = q0;
    wire[l1] = q1;
    for (Gate &g : out)
        for (int &q : g.qubits)
            q = wire[q];
    return out;
}

void
accumulate_2q_gate(Mat4 &u, const Gate &g, int q0, int q1)
{
    if (g.num_qubits() == 1) {
        Mat2 m = gate_matrix1(g);
        if (g.qubits[0] == q0)
            u = mul(tensor2(m, Mat2::identity()), u);
        else if (g.qubits[0] == q1)
            u = mul(tensor2(Mat2::identity(), m), u);
        else
            throw std::invalid_argument("gate outside the (q0, q1) pair");
        return;
    }
    if (g.num_qubits() != 2 || !is_unitary_op(g.kind))
        throw std::invalid_argument("not a unitary 1q/2q gate");
    Mat4 m = gate_matrix2(g);
    if (g.qubits[0] == q0 && g.qubits[1] == q1) {
        u = mul(m, u);
    } else if (g.qubits[0] == q1 && g.qubits[1] == q0) {
        Mat4 sw = swap_mat();
        u = mul(mul(sw, mul(m, sw)), u);
    } else {
        throw std::invalid_argument("gate outside the (q0, q1) pair");
    }
}

Mat4
unitary_of_2q_gates(const std::vector<Gate> &gates, int q0, int q1)
{
    Mat4 u = Mat4::identity();
    for (const Gate &g : gates)
        accumulate_2q_gate(u, g, q0, q1);
    return u;
}

} // namespace nassc
