#ifndef NASSC_PASSES_OPTIMIZE_1Q_H
#define NASSC_PASSES_OPTIMIZE_1Q_H

/**
 * @file
 * Qiskit-style Optimize1qGates pass: merge runs of single-qubit gates and
 * re-synthesize each run in the chosen basis.
 */

#include "nassc/ir/circuit.h"
#include "nassc/synth/euler1q.h"

namespace nassc {

class SynthMemo;

/**
 * Run the pass in place, answering each run that `memo` has seen (a
 * kRun1q entry, see passes/collect_blocks.h) without its matrix product
 * or its synthesis; returns the number of gates removed.  The output is
 * optimize_1q_runs()'s, whatever `memo` holds.
 */
int run_optimize_1q(QuantumCircuit &qc, Basis1q basis, SynthMemo &memo);

/** As above with a memo local to this call. */
int run_optimize_1q(QuantumCircuit &qc, Basis1q basis = Basis1q::kZsx);

} // namespace nassc

#endif // NASSC_PASSES_OPTIMIZE_1Q_H
