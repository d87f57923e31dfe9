#ifndef NASSC_IR_QASM_H
#define NASSC_IR_QASM_H

/**
 * @file
 * OpenQASM 2.0 subset import/export.
 *
 * Supported statements: OPENQASM, include, qreg, creg, barrier, measure,
 * and every gate in OpKind (plus the u1/u2/u3/cnot aliases).  Multiple
 * quantum registers are flattened into one contiguous index space in
 * declaration order.  Parameter expressions understand numbers, `pi`,
 * unary minus, and the + - * / operators with parentheses.
 */

#include <string>

#include "nassc/ir/circuit.h"

namespace nassc {

/** Serialize a circuit as OpenQASM 2.0 text. */
std::string to_qasm(const QuantumCircuit &qc);

/**
 * Parse OpenQASM 2.0 text into a circuit, in one pass over the text
 * with no per-statement allocation.  Characters are classified as in
 * the "C" locale.  Rejected as malformed: an operand followed by more
 * text (`h q[0] q[0];`), a redeclared qreg, an index or size that is
 * not a whole in-range integer, and a u2 on more than one qubit.
 * @throws std::runtime_error naming the offending statement on bad
 *         input; std::invalid_argument (from Gate) on a wrong operand
 *         or parameter count or a repeated operand.
 */
QuantumCircuit from_qasm(const std::string &text);

} // namespace nassc

#endif // NASSC_IR_QASM_H
