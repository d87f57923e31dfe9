#include "nassc/ir/dag.h"

#include <algorithm>

namespace nassc {

DagCircuit::DagCircuit(const QuantumCircuit &qc)
    : num_qubits_(qc.num_qubits()), gates_(qc.gates())
{
    const int n = static_cast<int>(gates_.size());
    wire_front_.assign(num_qubits_, -1);
    wire_back_.assign(num_qubits_, -1);

    pos_offsets_.resize(n + 1);
    pos_offsets_[0] = 0;
    for (int id = 0; id < n; ++id)
        pos_offsets_[id + 1] =
            pos_offsets_[id] + static_cast<int>(gates_[id].qubits.size());
    const int total = pos_offsets_[n];
    pos_preds_.assign(total, -1);
    pos_succs_.assign(total, -1);

    std::vector<int> last_on_wire(num_qubits_, -1);
    for (int id = 0; id < n; ++id) {
        const Gate &g = gates_[id];
        const int base = pos_offsets_[id];
        for (int pos = 0; pos < static_cast<int>(g.qubits.size()); ++pos) {
            int q = g.qubits[pos];
            int prev = last_on_wire[q];
            pos_preds_[base + pos] = prev;
            if (prev >= 0) {
                // Fill the matching successor slot of the predecessor.
                const Gate &pg = gates_[prev];
                const int pbase = pos_offsets_[prev];
                for (int ppos = 0;
                     ppos < static_cast<int>(pg.qubits.size()); ++ppos) {
                    if (pg.qubits[ppos] == q) {
                        pos_succs_[pbase + ppos] = id;
                        break;
                    }
                }
            } else {
                wire_front_[q] = id;
            }
            last_on_wire[q] = id;
        }
    }
    wire_back_ = last_on_wire;

    // Deduplicated views: sort each node's slot range, drop -1 and
    // repeats.  `scratch` is reused across nodes to avoid per-node
    // allocations during construction.
    dpred_offsets_.resize(n + 1);
    dsucc_offsets_.resize(n + 1);
    distinct_preds_.reserve(total);
    distinct_succs_.reserve(total);
    dpred_offsets_[0] = 0;
    dsucc_offsets_[0] = 0;
    std::vector<int> scratch;
    auto append_distinct = [&scratch](const std::vector<int> &flat, int lo,
                                      int hi, std::vector<int> &out) {
        scratch.assign(flat.begin() + lo, flat.begin() + hi);
        std::sort(scratch.begin(), scratch.end());
        int prev = -1;
        for (int v : scratch) {
            if (v >= 0 && v != prev)
                out.push_back(v);
            prev = v;
        }
    };
    for (int id = 0; id < n; ++id) {
        append_distinct(pos_preds_, pos_offsets_[id], pos_offsets_[id + 1],
                        distinct_preds_);
        dpred_offsets_[id + 1] = static_cast<int>(distinct_preds_.size());
        append_distinct(pos_succs_, pos_offsets_[id], pos_offsets_[id + 1],
                        distinct_succs_);
        dsucc_offsets_[id + 1] = static_cast<int>(distinct_succs_.size());
        if (dpred_offsets_[id + 1] == dpred_offsets_[id])
            initial_front_.push_back(id);
    }
}

QuantumCircuit
DagCircuit::to_circuit() const
{
    QuantumCircuit qc(num_qubits_);
    for (const Gate &g : gates_)
        qc.append(g);
    return qc;
}

} // namespace nassc
