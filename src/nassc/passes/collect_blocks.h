#ifndef NASSC_PASSES_COLLECT_BLOCKS_H
#define NASSC_PASSES_COLLECT_BLOCKS_H

/**
 * @file
 * Collect2qBlocks + ConsolidateBlocks/UnitarySynthesis.
 *
 * A two-qubit block is a maximal uninterrupted run of gates confined to
 * one qubit pair (1q gates on those wires included).  Consolidation
 * multiplies each block into a 4x4 unitary and re-synthesizes it through
 * the KAK engine, replacing the block when that lowers the CNOT-
 * equivalent cost (paper Sec. III / IV-D).  SWAP gates participate like
 * any other two-qubit gate, which is how a SWAP adjacent to a rich block
 * becomes cheap or even free.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nassc/ir/circuit.h"
#include "nassc/synth/euler1q.h"

namespace nassc {

/** One collected block. */
struct TwoQubitBlock
{
    int q0 = -1, q1 = -1;          ///< the wire pair (q0 < q1)
    std::vector<int> gate_indices; ///< member gates, circuit order
    int num_2q = 0;                ///< member two-qubit gate count
};

/**
 * Find every two-qubit block, in the order the blocks open.  Each block
 * holds at least one two-qubit gate.  A 1q gate joins the block open on
 * its wire, else the next block to open there; a barrier, measure or
 * wider gate on the wire first leaves it in no block.
 */
std::vector<TwoQubitBlock> collect_2q_blocks(const QuantumCircuit &qc);

/** Statistics of one consolidation run. */
struct ConsolidateStats
{
    int blocks_considered = 0;
    int blocks_replaced = 0;
    int blocks_reused = 0; ///< considered blocks answered by the SynthMemo
    int cx_before = 0;     ///< CX-equivalent count of considered blocks
    int cx_after = 0;      ///< CX-equivalent count after resynthesis
};

/**
 * Exact memo of block resynthesis outcomes, owned by its caller.
 *
 * transpile() and optimize_only() pass one to every consolidation they
 * run, so a block that recurs — across the optimization-loop rounds, or
 * on other wire pairs — is synthesized once.  A TranspileService keeps
 * a pool of them and leases one to each request for the length of its
 * transpile(), so a block also recurs across requests; a free call
 * keeps one on its stack.  Either way a memo has one user at a time.
 *
 * The key is a block's content relative to its wire pair (q0, q1): the
 * Basis1q, then per member gate in circuit order its OpKind, its
 * operands as relative codes (1q: 0 = q0, 1 = q1; 2q: 0 = (q0, q1),
 * 1 = (q1, q0)), its parameter count and the raw IEEE-754 bits of each
 * parameter.  SWAP orientation flags are not part of it: neither the
 * block unitary nor the replace decision reads them.  The value is the
 * replace decision and the new CX-equivalent cost, plus — for a replace
 * only — the synthesized gates on wires (0, 1), relabelled to (q0, q1)
 * on use.  Synthesis on (q0, q1) is synthesis on (0, 1) relabelled, so
 * a hit is bit-identical to a fresh synthesis.
 *
 * Storage is flat: one key arena, one gate pool, one slot array and one
 * open-addressing index, with no allocation per entry.  A 64-bit hash
 * picks the slot and a full-key compare decides the hit.  The memo is
 * cleared whenever the key arena would pass kMaxKeyWords (1 MiB) or the
 * gate pool kMaxGates (1 MiB of 64-byte gates).  Not thread-safe.
 */
class SynthMemo
{
  public:
    static constexpr std::size_t kMaxKeyWords = std::size_t{1} << 17;
    static constexpr std::size_t kMaxGates = std::size_t{1} << 14;

    /** One memoized block outcome. */
    struct Entry
    {
        std::uint64_t hash = 0;
        std::uint32_t key_begin = 0, key_len = 0;
        std::uint32_t gates_begin = 0, gates_len = 0;
        int new_cost = 0; ///< CX-equivalent cost of the synthesis
        bool replace = false;
    };

    /** The entry stored under key[0, len), or nullptr, counted as a
     *  hit or a miss.  The pointer is valid until the next insert(). */
    const Entry *find(const std::uint64_t *key, std::size_t len,
                      std::uint64_t hash);

    /** Store an outcome; `gates` (on wires 0 and 1) is kept only when
     *  `replace`.  May clear the memo first to stay within its bounds. */
    void insert(const std::uint64_t *key, std::size_t len,
                std::uint64_t hash, bool replace, int new_cost,
                const std::vector<Gate> &gates);

    /** Append e's gates to `out`, relabelled 0 -> q0 and 1 -> q1. */
    void append_gates(const Entry &e, int q0, int q1,
                      std::vector<Gate> &out) const;

    std::size_t size() const { return slots_.size(); }
    std::size_t key_words() const { return keys_.size(); }
    /** find() calls answered, and not answered, since construction. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    void clear();
    void grow_index();

    std::vector<std::uint64_t> keys_;
    std::vector<Gate> gates_;
    std::vector<Entry> slots_;
    std::vector<std::uint32_t> index_; ///< slot + 1; 0 = empty
    std::uint64_t hits_ = 0, misses_ = 0;
};

/**
 * Re-synthesize profitable blocks in place, answering repeated blocks
 * from `memo`.  The output does not depend on what `memo` holds.
 *
 * @param basis 1q basis for the synthesized replacement
 */
ConsolidateStats consolidate_2q_blocks(QuantumCircuit &qc, Basis1q basis,
                                       SynthMemo &memo);

/** As above with a memo local to this call. */
ConsolidateStats consolidate_2q_blocks(QuantumCircuit &qc,
                                       Basis1q basis = Basis1q::kUGate);

/** CX-equivalent cost of one gate when translated individually. */
int cx_equivalent_cost(const Gate &g);

} // namespace nassc

#endif // NASSC_PASSES_COLLECT_BLOCKS_H
