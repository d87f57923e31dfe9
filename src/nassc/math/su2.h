#ifndef NASSC_MATH_SU2_H
#define NASSC_MATH_SU2_H

/**
 * @file
 * Single-qubit (2x2 unitary) decompositions.
 */

#include "nassc/math/complex_mat.h"

namespace nassc {

/**
 * ZYZ Euler angles of a 2x2 unitary:
 *   U = exp(i * phase) * Rz(phi) * Ry(theta) * Rz(lam)
 */
struct EulerZyz
{
    double theta = 0.0;
    double phi = 0.0;
    double lam = 0.0;
    double phase = 0.0;
};

/** Decompose an arbitrary 2x2 unitary into ZYZ Euler angles. */
EulerZyz euler_zyz(const Mat2 &u);

/** Rebuild the unitary from its Euler angles (inverse of euler_zyz). */
Mat2 from_euler_zyz(const EulerZyz &e);

/**
 * Distance of a 2x2 unitary from the identity, ignoring global phase.
 * Returns 0 exactly when u is a scalar multiple of I.
 */
double distance_from_identity(const Mat2 &u);

/** Normalize an angle into (-pi, pi]. */
double norm_angle(double a);

} // namespace nassc

#endif // NASSC_MATH_SU2_H
