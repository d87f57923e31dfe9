#ifndef NASSC_IR_MATRICES_H
#define NASSC_IR_MATRICES_H

/**
 * @file
 * Unitary matrices of gate instances.
 *
 * Two-qubit matrices follow the library convention: the gate's first
 * operand is basis bit 0 (see complex_mat.h).
 */

#include "nassc/ir/gate.h"
#include "nassc/math/complex_mat.h"

namespace nassc {

/** The 2x2 matrix of a one-qubit gate. @throws for other gates. */
Mat2 gate_matrix1(const Gate &g);

/** The 4x4 matrix of a two-qubit gate. @throws for other gates. */
Mat4 gate_matrix2(const Gate &g);

/** Controlled-U with the control on basis bit 0 and target on bit 1. */
Mat4 controlled_mat(const Mat2 &u);

} // namespace nassc

#endif // NASSC_IR_MATRICES_H
