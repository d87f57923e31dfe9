#ifndef NASSC_PASSES_COMMUTATION_H
#define NASSC_PASSES_COMMUTATION_H

/**
 * @file
 * Gate-level commutation oracle and the CommutationAnalysis pass.
 *
 * CommutationAnalysis groups, for every wire, maximal runs of gates that
 * pairwise commute ("commute sets", paper Sec. IV-E).  The NASSC router
 * and the CommutativeCancellation pass consume these sets.
 */

#include <vector>

#include "nassc/ir/circuit.h"

namespace nassc {

/**
 * Do two gates commute as operators?  Fast paths cover the common
 * CX/rotation cases; two 1q gates on one wire compare their 2x2
 * products, and everything else falls back to an exact matrix check on
 * the union of their wires.  Pure: the answer depends only on the two
 * gates, never on earlier calls, and it is safe to call concurrently.
 */
bool gates_commute(const Gate &a, const Gate &b);

/**
 * Per-wire commute sets of a circuit, in one flat layout.
 *
 * Every gate is filed once under each wire it acts on.  Wire w's
 * entries are [wire_start[w], wire_start[w + 1]) in circuit order, and
 * each commute set is a contiguous run of them: entry_set holds the
 * set's ordinal on its wire (0, 1, ... in circuit order).  operand_entry
 * maps gate i's k-th operand to its entry, at operand_start[i] + k.
 */
struct CommutationInfo
{
    /** CSR offsets of each wire's entries; size num_qubits + 1. */
    std::vector<int> wire_start;
    /** Gate index of each entry. */
    std::vector<int> entry_gate;
    /** Ordinal of the commute set holding each entry, per wire. */
    std::vector<int> entry_set;
    /** Offsets of each gate's operands in operand_entry; size gates + 1. */
    std::vector<int> operand_start;
    /** Entry of each gate operand, in operand order. */
    std::vector<int> operand_entry;
};

/**
 * Run the analysis into `info`, reusing its storage.  The cost follows
 * the gates plus one O(1) step per wire.
 */
void analyze_commutation(const QuantumCircuit &qc, CommutationInfo &info);

/** Run the analysis into a fresh CommutationInfo. */
CommutationInfo analyze_commutation(const QuantumCircuit &qc);

} // namespace nassc

#endif // NASSC_PASSES_COMMUTATION_H
