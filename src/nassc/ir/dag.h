#ifndef NASSC_IR_DAG_H
#define NASSC_IR_DAG_H

/**
 * @file
 * Dependency DAG over the gates of a circuit.
 *
 * Node i represents gate i of the source circuit; an edge i -> j exists
 * when gate j is the next gate after i on one of i's wires.  The DAG is
 * immutable; consumers that "execute" gates (e.g. the routers) keep their
 * own frontier bookkeeping on top of it.
 *
 * Adjacency is stored CSR-style: one flat index array per view with a
 * per-node offset table, so the routers' hot loops (frontier updates,
 * extended-set BFS) walk contiguous memory instead of a
 * vector-of-vectors.  Two views exist per direction:
 *
 *  - preds(id)/succs(id): one entry per operand position, in operand
 *    order, -1 when the gate is first/last on that wire.  May repeat a
 *    node when two wires connect the same pair of gates.
 *  - distinct_preds(id)/distinct_succs(id): deduplicated neighbor nodes
 *    in ascending order, -1 entries dropped (what indegree counting and
 *    gate execution need).
 */

#include <vector>

#include "nassc/ir/circuit.h"

namespace nassc {

/** Non-owning view into a CSR index array. */
class IntSpan
{
  public:
    IntSpan() = default;
    IntSpan(const int *data, int size) : data_(data), size_(size) {}

    const int *begin() const { return data_; }
    const int *end() const { return data_ + size_; }
    int size() const { return size_; }
    bool empty() const { return size_ == 0; }
    int operator[](int i) const { return data_[i]; }
    int front() const { return data_[0]; }

  private:
    const int *data_ = nullptr;
    int size_ = 0;
};

/** Immutable gate-dependency DAG of a QuantumCircuit. */
class DagCircuit
{
  public:
    explicit DagCircuit(const QuantumCircuit &qc);

    int num_qubits() const { return num_qubits_; }
    int num_nodes() const { return static_cast<int>(gates_.size()); }

    const Gate &gate(int id) const { return gates_[id]; }

    /** Predecessor node per operand position (-1 when first on wire). */
    IntSpan
    preds(int id) const
    {
        return {pos_preds_.data() + pos_offsets_[id],
                pos_offsets_[id + 1] - pos_offsets_[id]};
    }

    /** Successor node per operand position (-1 when last on wire). */
    IntSpan
    succs(int id) const
    {
        return {pos_succs_.data() + pos_offsets_[id],
                pos_offsets_[id + 1] - pos_offsets_[id]};
    }

    /** Distinct predecessor nodes, ascending, no -1 entries. */
    IntSpan
    distinct_preds(int id) const
    {
        return {distinct_preds_.data() + dpred_offsets_[id],
                dpred_offsets_[id + 1] - dpred_offsets_[id]};
    }

    /** Distinct successor nodes, ascending, no -1 entries. */
    IntSpan
    distinct_succs(int id) const
    {
        return {distinct_succs_.data() + dsucc_offsets_[id],
                dsucc_offsets_[id + 1] - dsucc_offsets_[id]};
    }

    /** Number of distinct predecessor nodes (for indegree counting). */
    int
    num_distinct_preds(int id) const
    {
        return dpred_offsets_[id + 1] - dpred_offsets_[id];
    }

    /** Nodes with no predecessors, in source order. */
    const std::vector<int> &initial_front() const { return initial_front_; }

    /** First node on each wire (-1 for idle wires). */
    int wire_front(int qubit) const { return wire_front_[qubit]; }

    /** Last node on each wire (-1 for idle wires). */
    int wire_back(int qubit) const { return wire_back_[qubit]; }

    /** Rebuild a flat circuit (identical to the source circuit). */
    QuantumCircuit to_circuit() const;

  private:
    int num_qubits_ = 0;
    std::vector<Gate> gates_;
    /** Shared offsets of the per-position views (one slot per operand). */
    std::vector<int> pos_offsets_;
    std::vector<int> pos_preds_;
    std::vector<int> pos_succs_;
    /** Deduplicated views (independent offsets; entries are sorted). */
    std::vector<int> dpred_offsets_;
    std::vector<int> distinct_preds_;
    std::vector<int> dsucc_offsets_;
    std::vector<int> distinct_succs_;
    std::vector<int> initial_front_;
    std::vector<int> wire_front_;
    std::vector<int> wire_back_;
};

} // namespace nassc

#endif // NASSC_IR_DAG_H
