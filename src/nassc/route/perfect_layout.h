#ifndef NASSC_ROUTE_PERFECT_LAYOUT_H
#define NASSC_ROUTE_PERFECT_LAYOUT_H

/**
 * @file
 * Subgraph-isomorphism layout search (the role of Qiskit's VF2Layout):
 * if the circuit's interaction graph embeds into the coupling graph, a
 * perfect layout needs zero SWAPs and routing is the identity.
 *
 * Backtracking with degree-based vertex ordering and a work budget; this
 * is exact for the benchmark sizes used here (<= 27 qubits).
 */

#include <vector>

#include "nassc/ir/circuit.h"
#include "nassc/topo/coupling_map.h"

namespace nassc {

/** Undirected interaction graph of a circuit's two-qubit gates. */
std::vector<std::pair<int, int>>
interaction_edges(const QuantumCircuit &qc);

/**
 * Backtracking search for an injective mapping of logical onto physical
 * qubits such that every interacting pair lands on a coupled pair, cut
 * off after `budget` steps.  Returns the deepest assignment reached:
 * `l2p[l]` is -1 for the logical qubits left unassigned; `complete`
 * marks a genuine perfect layout.  Deterministic: a pure function of
 * (circuit, coupling, budget), never of timing — the multi-trial
 * layout search seeds one trial from it.
 */
struct PartialEmbedding
{
    std::vector<int> l2p;
    int assigned = 0;
    bool complete = false;
};

PartialEmbedding find_partial_embedding(const QuantumCircuit &qc,
                                        const CouplingMap &cm,
                                        long budget = 200000);

} // namespace nassc

#endif // NASSC_ROUTE_PERFECT_LAYOUT_H
