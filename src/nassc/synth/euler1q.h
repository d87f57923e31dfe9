#ifndef NASSC_SYNTH_EULER1Q_H
#define NASSC_SYNTH_EULER1Q_H

/**
 * @file
 * One-qubit gate synthesis and run-merging.
 *
 * Implements the role of Qiskit's Optimize1qGates: collapse an arbitrary
 * 2x2 unitary into either a single `u` gate or a minimal sequence over the
 * IBM basis {rz, sx, x} using the ZSXZSX identity
 *
 *   u(theta, phi, lam) ~ rz(phi + pi) . sx . rz(theta + pi) . sx . rz(lam)
 *
 * (matrix order; global phase dropped), with cheaper forms when theta is
 * 0, pi/2 or pi.
 */

#include <vector>

#include "nassc/ir/gate.h"
#include "nassc/math/complex_mat.h"

namespace nassc {

/** Target basis for 1-qubit synthesis. */
enum class Basis1q {
    kUGate, ///< single u(theta, phi, lambda) gate
    kZsx,   ///< rz / sx / x sequence (IBM basis)
};

/**
 * Synthesize the unitary `u` on qubit `q`, appending the gates to `out`.
 *
 * Appends nothing when u is the identity up to global phase.
 */
void synth_1q_into(std::vector<Gate> &out, const Mat2 &u, int q,
                   Basis1q basis, double tol = 1e-10);

/** synth_1q_into() into a fresh vector. */
std::vector<Gate> synth_1q(const Mat2 &u, int q, Basis1q basis,
                           double tol = 1e-10);

/**
 * Merge every maximal run of adjacent one-qubit gates (per wire) in the
 * gate list and re-synthesize each run in the requested basis.  Non-1q
 * gates act as barriers on their wires.  Returns the number of gates
 * removed (negative if the list grew).
 */
int optimize_1q_runs(std::vector<Gate> &gates, int num_qubits, Basis1q basis,
                     double tol = 1e-10);

} // namespace nassc

#endif // NASSC_SYNTH_EULER1Q_H
