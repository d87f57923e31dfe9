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

/** Per-wire commute sets of a circuit. */
struct CommutationInfo
{
    /**
     * wire_sets[w] is the ordered list of commute sets on wire w; each
     * set holds gate indices (ascending).
     */
    std::vector<std::vector<std::vector<int>>> wire_sets;

    /** set_index[w][k] = ordinal of the set containing the k-th gate *on
     *  wire w* (parallel to wire_gates[w]). */
    std::vector<std::vector<int>> set_index;

    /** Gate indices on each wire, in circuit order. */
    std::vector<std::vector<int>> wire_gates;

    /** Ordinal of the set that contains gate `gate_idx` on wire w, or -1. */
    int set_of(int wire, int gate_idx) const;
};

/** Run the analysis. */
CommutationInfo analyze_commutation(const QuantumCircuit &qc);

} // namespace nassc

#endif // NASSC_PASSES_COMMUTATION_H
