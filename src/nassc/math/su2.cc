#include "nassc/math/su2.h"

#include <cmath>

namespace nassc {

EulerZyz
euler_zyz(const Mat2 &u)
{
    EulerZyz e;

    // Pull out the global phase so that the remainder is in SU(2).
    Cx d = det(u);
    double phase_half = 0.5 * std::arg(d);
    Cx inv_phase = std::exp(Cx(0.0, -phase_half));
    Mat2 v = scale(u, inv_phase);

    // v = [[ e^{-i(phi+lam)/2} cos(t/2), -e^{-i(phi-lam)/2} sin(t/2)],
    //      [ e^{ i(phi-lam)/2} sin(t/2),  e^{ i(phi+lam)/2} cos(t/2)]]
    double c = std::abs(v(0, 0));
    double s = std::abs(v(1, 0));
    e.theta = 2.0 * std::atan2(s, c);
    e.phase = phase_half;

    const double tol = 1e-12;
    if (s < tol) {
        // theta ~ 0: only phi + lam matters.
        e.phi = 2.0 * std::arg(v(1, 1));
        e.lam = 0.0;
    } else if (c < tol) {
        // theta ~ pi: only phi - lam matters.
        e.phi = 2.0 * std::arg(v(1, 0));
        e.lam = 0.0;
    } else {
        double plus = 2.0 * std::arg(v(1, 1));  // phi + lam
        double minus = 2.0 * std::arg(v(1, 0)); // phi - lam
        e.phi = 0.5 * (plus + minus);
        e.lam = 0.5 * (plus - minus);
    }
    return e;
}

Mat2
from_euler_zyz(const EulerZyz &e)
{
    Mat2 m = mul(rz_gate(e.phi), mul(ry_gate(e.theta), rz_gate(e.lam)));
    return scale(m, std::exp(Cx(0.0, e.phase)));
}

double
distance_from_identity(const Mat2 &u)
{
    // |tr(u)| = 2 exactly for scalar unitaries.
    double t = std::abs(trace(u));
    double d = 1.0 - t / 2.0;
    return d < 0.0 ? 0.0 : d;
}

double
norm_angle(double a)
{
    a = std::fmod(a, 2.0 * M_PI);
    if (a <= -M_PI)
        a += 2.0 * M_PI;
    if (a > M_PI)
        a -= 2.0 * M_PI;
    return a;
}

} // namespace nassc
