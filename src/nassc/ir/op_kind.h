#ifndef NASSC_IR_OP_KIND_H
#define NASSC_IR_OP_KIND_H

/**
 * @file
 * Enumeration of the quantum operations understood by the compiler.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace nassc {

/** Kinds of quantum operations. */
enum class OpKind : uint8_t {
    // One-qubit gates.
    kId,
    kX,
    kY,
    kZ,
    kH,
    kS,
    kSdg,
    kT,
    kTdg,
    kSX,
    kSXdg,
    kRX,
    kRY,
    kRZ,
    kP,
    kU, // u3(theta, phi, lambda)
    // Two-qubit gates.
    kCX,
    kCY,
    kCZ,
    kCH,
    kCP,
    kCRX,
    kCRY,
    kCRZ,
    kRZZ,
    kRXX,
    kSwap,
    kISwap,
    // Three-or-more-qubit gates.
    kCCX,
    kCCZ,
    kCSwap,
    kMCX, // multi-controlled X; last operand is the target
    // Non-unitary / structural.
    kBarrier,
    kMeasure,
};

/** Lower-case OpenQASM-style mnemonic for an op kind. */
const char *op_name(OpKind k);

/** Inverse lookup of op_name; nullopt for unknown names. */
std::optional<OpKind> op_from_name(std::string_view name);

/**
 * Number of qubit operands of a kind, or -1 when variable (kMCX,
 * kBarrier).
 */
int op_arity(OpKind k);

/** Number of real parameters the op expects. */
int op_num_params(OpKind k);

/** True for fixed single-qubit unitary gates. */
bool is_one_qubit(OpKind k);

/** True for fixed two-qubit unitary gates. */
bool is_two_qubit(OpKind k);

/** True if the gate is its own inverse (the set used by
 *  CommutativeCancellation: h, x, y, z, cx, cy, cz plus swap/ccx/ccz). */
bool is_self_inverse(OpKind k);

/** True if the gate matrix is diagonal in the computational basis. */
bool is_diagonal(OpKind k);

/** True for unitary operations (everything except barrier/measure). */
bool is_unitary_op(OpKind k);

} // namespace nassc

#endif // NASSC_IR_OP_KIND_H
