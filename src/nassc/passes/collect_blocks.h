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
 * Exact memo of local resynthesis outcomes, owned by its caller.
 *
 * transpile() and optimize_only() pass one to every local resynthesis
 * they run — each block consolidation, each Optimize1qGates pass and
 * each basis translation — so a two-qubit block or a 1q run that
 * recurs, across the optimization-loop rounds or on other wires, is
 * synthesized once.  A TranspileService keeps a pool of them and leases
 * one to each request for the length of its transpile(), so they also
 * recur across requests; a free call keeps one on its stack.  Either
 * way a memo has one user at a time.
 *
 * A key opens with a tag word that keeps its kinds of entry apart.
 * The three resynthesis tags then hold the Basis1q:
 *
 *  - kBlock2q, a two-qubit block relative to its wire pair (q0, q1):
 *    per member gate in circuit order its OpKind, its operands as
 *    relative codes (1q: 0 = q0, 1 = q1; 2q: 0 = (q0, q1),
 *    1 = (q1, q0)), its parameter count and the raw IEEE-754 bits of
 *    each parameter.  SWAP orientation flags are not part of it:
 *    neither the block unitary nor the replace decision reads them.
 *    The value is the replace decision and the new CX-equivalent cost,
 *    plus — for a replace only — the synthesized gates on wires (0, 1),
 *    relabelled to (q0, q1) on use.
 *  - kRun1q, a maximal 1q run merged by run_optimize_1q, and
 *    kTranslate1q, one 1q gate lowered by translate_to_basis: per gate
 *    its OpKind, its parameter count and the raw bits of each
 *    parameter.  The value is the synthesized gates, kept after the
 *    key in the key arena in the key's own encoding (a 1q gate is its
 *    kind and parameters; 8 bytes per word where a pooled Gate takes
 *    64) and rebuilt on the run's wire on use.  A one-gate run and a
 *    translated gate do not share an entry: the run multiplies its
 *    matrices onto the identity first, which can flip the sign of a
 *    zero entry, and so of an angle.
 *  - kC2qCost, a block unitary whose CNOT costs NASSC's router
 *    weighs: the raw bits of its 32 doubles, with the two costs kept
 *    after the key (see OptAwareTracker::c2q_costs).
 *
 * Synthesis on (q0, q1) or q is synthesis on (0, 1) or 0 relabelled,
 * and parameters are kept as raw bits, so a hit is bit-identical to a
 * fresh synthesis.
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

    /** First word of every key: which outcome the entry answers. */
    enum Tag : std::uint64_t {
        kBlock2q = 0,
        kRun1q = 1,
        kTranslate1q = 2,
        kC2qCost = 3
    };

    /** One memoized outcome. */
    struct Entry
    {
        std::uint64_t hash = 0;
        std::uint32_t key_begin = 0, key_len = 0;
        /** kBlock2q: the synthesis in the gate pool.  1q: gates_len
         *  gates, encoded in the key arena after the key (the words
         *  there are a kC2qCost entry's costs). */
        std::uint32_t gates_begin = 0, gates_len = 0;
        int new_cost = 0; ///< kBlock2q: CX-equivalent cost of the synthesis
        bool replace = false; ///< kBlock2q: the block is resynthesized
    };

    /** Hash of key[0, len), a word at a time. */
    static std::uint64_t hash(const std::uint64_t *key, std::size_t len);

    /** Append g's key words: its OpKind, `operand_code` (see above),
     *  its parameter count, then the raw bits of each parameter. */
    static void append_gate_key(std::vector<std::uint64_t> &key,
                                const Gate &g, std::uint64_t operand_code);

    /** The entry stored under key[0, len), or nullptr, counted as a
     *  hit or a miss.  The pointer is valid until the next insert(). */
    const Entry *find(const std::uint64_t *key, std::size_t len,
                      std::uint64_t hash);

    /** Store a kBlock2q outcome; `gates` (on wires 0 and 1) is kept only
     *  when `replace`.  May clear the memo first to stay within its
     *  bounds, and stores nothing when the entry alone would pass them. */
    void insert(const std::uint64_t *key, std::size_t len,
                std::uint64_t hash, bool replace, int new_cost,
                const std::vector<Gate> &gates);

    /** Append e's gates to `out`, relabelled 0 -> q0 and 1 -> q1. */
    void append_gates(const Entry &e, int q0, int q1,
                      std::vector<Gate> &out) const;

    /**
     * A 1q lookup (kRun1q or kTranslate1q): on a hit, append the stored
     * gates to `out` on wire q and return true.  On a miss return false;
     * the caller appends its synthesis on wire q and passes where it
     * began to insert_1q().
     */
    bool append_1q(const std::uint64_t *key, std::size_t len,
                   std::uint64_t hash, int q, std::vector<Gate> &out);

    /** Store out[from, end), one wire's synthesis, under the key.
     *  Bounded like insert(). */
    void insert_1q(const std::uint64_t *key, std::size_t len,
                   std::uint64_t hash, const std::vector<Gate> &out,
                   std::size_t from);

    /** The words stored after the key by insert_words(), or nullptr,
     *  counted as a hit or a miss.  Valid until the next insert. */
    const std::uint64_t *find_words(const std::uint64_t *key,
                                    std::size_t len, std::uint64_t hash);

    /** Store value[0, n) after the key.  Bounded like insert(). */
    void insert_words(const std::uint64_t *key, std::size_t len,
                      std::uint64_t hash, const std::uint64_t *value,
                      std::size_t n);

    std::size_t size() const { return slots_.size(); }
    std::size_t key_words() const { return keys_.size(); }
    /** Gates in the pool: kBlock2q syntheses only. */
    std::size_t pooled_gates() const { return gates_.size(); }
    /** find() and append_1q() calls answered, and not answered, since
     *  construction. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Heap bytes held. */
    std::size_t memory_bytes() const;

  private:
    /** Store the key, then value[0, n_value), in the key arena, and
     *  n_gates pooled gates. */
    Entry *add(const std::uint64_t *key, std::size_t key_len,
               const std::uint64_t *value, std::size_t n_value,
               std::uint64_t hash, const Gate *gates, std::size_t n_gates);
    void clear();
    void grow_index();

    std::vector<std::uint64_t> keys_;
    std::vector<Gate> gates_;
    std::vector<Entry> slots_;
    std::vector<std::uint32_t> index_; ///< slot + 1; 0 = empty
    std::vector<std::uint64_t> scratch_; ///< insert_1q's encoded gates
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
