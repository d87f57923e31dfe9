#ifndef NASSC_PASSES_BASIS_TRANSLATION_H
#define NASSC_PASSES_BASIS_TRANSLATION_H

/**
 * @file
 * Gate decomposition passes (step 1 of the compilation flow, Fig. 2).
 *
 * decompose_to_2q() lowers >=3-qubit gates (ccx, ccz, cswap, mcx) into
 * one- and two-qubit gates so routing can run; translate_to_basis()
 * lowers everything into the IBM basis {rz, sx, x, cx}, synthesizing
 * non-CX two-qubit gates through the KAK engine so each costs its minimal
 * number of CNOTs.
 */

#include "nassc/ir/circuit.h"
#include "nassc/synth/euler1q.h"

namespace nassc {

class SynthMemo;

/** Expand all gates acting on three or more qubits into 1q/2q gates. */
QuantumCircuit decompose_to_2q(const QuantumCircuit &qc);

/**
 * Translate a (<= 2-qubit) circuit into {rz, sx, x, cx} (+ measure /
 * barrier).  SWAP gates must have been expanded by decompose_swaps first.
 * Each 1q gate `memo` has seen (a kTranslate1q entry, see
 * passes/collect_blocks.h) is answered without its synthesis; the
 * output does not depend on what `memo` holds.
 */
QuantumCircuit translate_to_basis(const QuantumCircuit &qc, SynthMemo &memo);

/** As above with a memo local to this call. */
QuantumCircuit translate_to_basis(const QuantumCircuit &qc);

/** True if every gate is in the IBM basis or non-unitary. */
bool is_basis_circuit(const QuantumCircuit &qc);

} // namespace nassc

#endif // NASSC_PASSES_BASIS_TRANSLATION_H
