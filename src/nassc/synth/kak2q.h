#ifndef NASSC_SYNTH_KAK2Q_H
#define NASSC_SYNTH_KAK2Q_H

/**
 * @file
 * Exact two-qubit unitary synthesis with the minimal number of CNOTs.
 *
 * This is the engine behind two-qubit block resynthesis (Qiskit's
 * Collect2qBlocks + UnitarySynthesis): the KAK decomposition provides
 * chamber coordinates (a, b, c); the circuit is then assembled from one of
 * four templates
 *
 *   0 CX:  local gates only
 *   1 CX:  N(pi/4, 0, 0) = (H(x)H) e^{i pi/4 ZZ} (H(x)H)
 *   2 CX:  N(a, b, 0) = (V+(x)V+) CX (Rx(-2a)(x)Rz(-2b)) CX (V(x)V),
 *          V = Rx(pi/2)
 *   3 CX:  N(a, b, c) = N(a, b, 0) . N(0, 0, c) with the middle pair of
 *          CNOTs fused through CX (Rx(pi/2)(x)Rx(pi/2)) CX =
 *          e^{-i pi/4 XX} (Rx(pi/2) on the target)
 *
 * [Vidal & Dawson '04; Vatan & Williams '04].  All templates are verified
 * by the test suite against the matrix exponential.
 */

#include <vector>

#include "nassc/ir/gate.h"
#include "nassc/math/complex_mat.h"
#include "nassc/synth/euler1q.h"

namespace nassc {

/**
 * Synthesize the 4x4 unitary `u` over qubits (q0, q1) — q0 is basis bit 0
 * — using the minimal number of CNOTs.  One-qubit gates are emitted in
 * the requested basis; global phase is dropped.  The work does not grow
 * with the wire indices.
 */
std::vector<Gate> synth_2q_kak(const Mat4 &u, int q0, int q1,
                               Basis1q basis = Basis1q::kUGate);

/**
 * The 4x4 unitary of a gate list over the qubit pair (q0, q1), up to
 * global phase contributions of each gate.  Every gate must act only on
 * q0 and/or q1.  Used for block consolidation and by the NASSC C2q cost.
 */
Mat4 unitary_of_2q_gates(const std::vector<Gate> &gates, int q0, int q1);

/** Accumulate one more gate into a running 4x4 block unitary. */
void accumulate_2q_gate(Mat4 &u, const Gate &g, int q0, int q1);

} // namespace nassc

#endif // NASSC_SYNTH_KAK2Q_H
