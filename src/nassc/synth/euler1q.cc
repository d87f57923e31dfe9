#include "nassc/synth/euler1q.h"

#include <cmath>

#include "nassc/ir/matrices.h"
#include "nassc/math/su2.h"

namespace nassc {

namespace {

bool
is_zero_angle(double a, double tol)
{
    return std::abs(norm_angle(a)) < tol;
}

void
emit_rz(std::vector<Gate> &out, int q, double angle, double tol)
{
    angle = norm_angle(angle);
    if (std::abs(angle) >= tol)
        out.push_back(Gate::one_q(OpKind::kRZ, q, angle));
}

} // namespace

void
synth_1q_into(std::vector<Gate> &out, const Mat2 &u, int q, Basis1q basis,
              double tol)
{
    EulerZyz e = euler_zyz(u);

    if (basis == Basis1q::kUGate) {
        if (e.theta < tol && is_zero_angle(e.phi + e.lam, tol))
            return;
        out.push_back(Gate::u(q, e.theta, e.phi, e.lam));
        return;
    }

    // ZSX basis.  euler_zyz returns theta in [0, pi].
    if (e.theta < tol) {
        emit_rz(out, q, e.phi + e.lam, tol);
        return;
    }
    if (std::abs(e.theta - M_PI) < tol) {
        // u(pi, phi, lam) ~ x . rz(lam - phi + pi)   (circuit order)
        emit_rz(out, q, e.lam - e.phi + M_PI, tol);
        out.push_back(Gate::one_q(OpKind::kX, q));
        return;
    }
    if (std::abs(e.theta - M_PI / 2.0) < tol) {
        // u(pi/2, phi, lam) ~ rz(phi + pi/2) . sx . rz(lam - pi/2)
        emit_rz(out, q, e.lam - M_PI / 2.0, tol);
        out.push_back(Gate::one_q(OpKind::kSX, q));
        emit_rz(out, q, e.phi + M_PI / 2.0, tol);
        return;
    }
    // Generic: rz(phi+pi) . sx . rz(theta+pi) . sx . rz(lam)
    emit_rz(out, q, e.lam, tol);
    out.push_back(Gate::one_q(OpKind::kSX, q));
    emit_rz(out, q, e.theta + M_PI, tol);
    out.push_back(Gate::one_q(OpKind::kSX, q));
    emit_rz(out, q, e.phi + M_PI, tol);
}

std::vector<Gate>
synth_1q(const Mat2 &u, int q, Basis1q basis, double tol)
{
    std::vector<Gate> out;
    synth_1q_into(out, u, q, basis, tol);
    return out;
}

int
optimize_1q_runs(std::vector<Gate> &gates, int num_qubits, Basis1q basis,
                 double tol)
{
    std::vector<Gate> out;
    out.reserve(gates.size());

    // Pending accumulated unitary per wire; identity when inactive.
    std::vector<Mat2> pending(num_qubits, Mat2::identity());
    std::vector<bool> active(num_qubits, false);
    int before = static_cast<int>(gates.size());

    auto flush = [&](int q) {
        if (!active[q])
            return;
        synth_1q_into(out, pending[q], q, basis, tol);
        pending[q] = Mat2::identity();
        active[q] = false;
    };

    for (Gate &g : gates) {
        if (is_one_qubit(g.kind)) {
            int q = g.qubits[0];
            pending[q] = mul(gate_matrix1(g), pending[q]);
            active[q] = true;
            continue;
        }
        for (int q : g.qubits)
            flush(q);
        out.push_back(std::move(g));
    }
    for (int q = 0; q < num_qubits; ++q)
        flush(q);

    int removed = before - static_cast<int>(out.size());
    gates = std::move(out);
    return removed;
}

} // namespace nassc
