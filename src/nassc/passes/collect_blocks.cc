#include "nassc/passes/collect_blocks.h"

#include <algorithm>
#include <cstring>

#include "nassc/synth/kak2q.h"

namespace nassc {

namespace {

struct Builder
{
    // Open block per wire: index into `blocks`, or -1.
    std::vector<int> open;
    // 1q gates waiting for a block on each wire.
    std::vector<std::vector<int>> pending_1q;
    std::vector<TwoQubitBlock> blocks;

    explicit Builder(int n) : open(n, -1), pending_1q(n) {}

    void
    close_wire(int q)
    {
        if (open[q] >= 0) {
            TwoQubitBlock &blk = blocks[open[q]];
            open[blk.q0] = -1;
            open[blk.q1] = -1;
        }
        pending_1q[q].clear();
    }
};

} // namespace

std::uint64_t
SynthMemo::hash(const std::uint64_t *key, std::size_t len)
{
    // A word at a time, where Fnv1a takes a byte at a time, since every
    // lookup hashes its key.
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= key[i];
        h *= 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
    }
    return h;
}

void
SynthMemo::append_gate_key(std::vector<std::uint64_t> &key, const Gate &g,
                           std::uint64_t operand_code)
{
    key.push_back(static_cast<std::uint64_t>(g.kind) | operand_code << 8 |
                  static_cast<std::uint64_t>(g.params.size()) << 16);
    for (double p : g.params) {
        std::uint64_t bits;
        std::memcpy(&bits, &p, sizeof(bits));
        key.push_back(bits);
    }
}

const SynthMemo::Entry *
SynthMemo::find(const std::uint64_t *key, std::size_t len,
                std::uint64_t hash)
{
    if (!index_.empty()) {
        std::size_t mask = index_.size() - 1;
        for (std::size_t i = hash & mask; index_[i] != 0;
             i = (i + 1) & mask) {
            const Entry &e = slots_[index_[i] - 1];
            if (e.hash == hash && e.key_len == len &&
                std::memcmp(&keys_[e.key_begin], key,
                            len * sizeof(std::uint64_t)) == 0) {
                ++hits_;
                return &e;
            }
        }
    }
    ++misses_;
    return nullptr;
}

SynthMemo::Entry *
SynthMemo::add(const std::uint64_t *key, std::size_t key_len,
               const std::uint64_t *value, std::size_t n_value,
               std::uint64_t hash, const Gate *gates, std::size_t n_gates)
{
    const std::size_t n_words = key_len + n_value;
    if (n_words > kMaxKeyWords || n_gates > kMaxGates)
        return nullptr;
    if (keys_.size() + n_words > kMaxKeyWords ||
        gates_.size() + n_gates > kMaxGates)
        clear();
    if ((slots_.size() + 1) * 2 > index_.size())
        grow_index();

    Entry e;
    e.hash = hash;
    e.key_begin = static_cast<std::uint32_t>(keys_.size());
    e.key_len = static_cast<std::uint32_t>(key_len);
    e.gates_begin = static_cast<std::uint32_t>(gates_.size());
    e.gates_len = static_cast<std::uint32_t>(n_gates);
    keys_.insert(keys_.end(), key, key + key_len);
    keys_.insert(keys_.end(), value, value + n_value);
    gates_.insert(gates_.end(), gates, gates + n_gates);
    slots_.push_back(e);

    std::size_t mask = index_.size() - 1;
    std::size_t i = hash & mask;
    while (index_[i] != 0)
        i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(slots_.size());
    return &slots_.back();
}

void
SynthMemo::insert(const std::uint64_t *key, std::size_t len,
                  std::uint64_t hash, bool replace, int new_cost,
                  const std::vector<Gate> &gates)
{
    if (Entry *e = add(key, len, nullptr, 0, hash, gates.data(),
                       replace ? gates.size() : 0)) {
        e->new_cost = new_cost;
        e->replace = replace;
    }
}

void
SynthMemo::append_gates(const Entry &e, int q0, int q1,
                        std::vector<Gate> &out) const
{
    const int wire[2] = {q0, q1};
    for (std::uint32_t k = 0; k < e.gates_len; ++k) {
        out.push_back(gates_[e.gates_begin + k]);
        for (int &q : out.back().qubits)
            q = wire[q];
    }
}

bool
SynthMemo::append_1q(const std::uint64_t *key, std::size_t len,
                     std::uint64_t hash, int q, std::vector<Gate> &out)
{
    const Entry *e = find(key, len, hash);
    if (e == nullptr)
        return false;
    // Decode what append_gate_key() wrote for each gate.
    const std::uint64_t *w = keys_.data() + e->key_begin + e->key_len;
    for (std::uint32_t k = 0; k < e->gates_len; ++k) {
        Gate &g = out.emplace_back();
        g.kind = static_cast<OpKind>(*w & 0xff);
        g.qubits.push_back(q);
        for (std::uint64_t n = *w++ >> 16; n > 0; --n) {
            double p;
            std::memcpy(&p, w++, sizeof(p));
            g.params.push_back(p);
        }
    }
    return true;
}

void
SynthMemo::insert_1q(const std::uint64_t *key, std::size_t len,
                     std::uint64_t hash, const std::vector<Gate> &out,
                     std::size_t from)
{
    scratch_.clear();
    for (std::size_t k = from; k < out.size(); ++k)
        append_gate_key(scratch_, out[k], 0);
    if (Entry *e = add(key, len, scratch_.data(), scratch_.size(), hash,
                       nullptr, 0))
        e->gates_len = static_cast<std::uint32_t>(out.size() - from);
}

const std::uint64_t *
SynthMemo::find_words(const std::uint64_t *key, std::size_t len,
                      std::uint64_t hash)
{
    const Entry *e = find(key, len, hash);
    return e == nullptr ? nullptr : keys_.data() + e->key_begin + len;
}

void
SynthMemo::insert_words(const std::uint64_t *key, std::size_t len,
                        std::uint64_t hash, const std::uint64_t *value,
                        std::size_t n)
{
    add(key, len, value, n, hash, nullptr, 0);
}

std::size_t
SynthMemo::memory_bytes() const
{
    return (keys_.capacity() + scratch_.capacity()) * sizeof(std::uint64_t) +
           gates_.capacity() * sizeof(Gate) +
           slots_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(std::uint32_t);
}

void
SynthMemo::clear()
{
    keys_.clear();
    gates_.clear();
    slots_.clear();
    std::fill(index_.begin(), index_.end(), 0u);
}

void
SynthMemo::grow_index()
{
    index_.assign(std::max<std::size_t>(256, index_.size() * 2), 0u);
    std::size_t mask = index_.size() - 1;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        std::size_t i = slots_[s].hash & mask;
        while (index_[i] != 0)
            i = (i + 1) & mask;
        index_[i] = static_cast<std::uint32_t>(s + 1);
    }
}

int
cx_equivalent_cost(const Gate &g)
{
    switch (g.kind) {
      case OpKind::kCX:
      case OpKind::kCZ:
      case OpKind::kCY:
        return 1;
      case OpKind::kSwap:
        return 3;
      case OpKind::kISwap:
      case OpKind::kCH:
      case OpKind::kCP:
      case OpKind::kCRX:
      case OpKind::kCRY:
      case OpKind::kCRZ:
      case OpKind::kRZZ:
      case OpKind::kRXX:
        return 2;
      default:
        return 0;
    }
}

std::vector<TwoQubitBlock>
collect_2q_blocks(const QuantumCircuit &qc)
{
    Builder b(qc.num_qubits());

    for (size_t i = 0; i < qc.size(); ++i) {
        const Gate &g = qc.gate(i);
        int idx = static_cast<int>(i);

        if (is_one_qubit(g.kind)) {
            int q = g.qubits[0];
            if (b.open[q] >= 0)
                b.blocks[b.open[q]].gate_indices.push_back(idx);
            else
                b.pending_1q[q].push_back(idx);
            continue;
        }
        if (g.num_qubits() == 2 && is_unitary_op(g.kind)) {
            int a = g.qubits[0], q0 = std::min(a, g.qubits[1]);
            int q1 = std::max(a, g.qubits[1]);
            int cur = b.open[q0];
            if (cur >= 0 && cur == b.open[q1] && b.blocks[cur].q0 == q0 &&
                b.blocks[cur].q1 == q1) {
                b.blocks[cur].gate_indices.push_back(idx);
                ++b.blocks[cur].num_2q;
                continue;
            }
            // Close whatever the wires were doing, open a fresh block and
            // absorb the pending 1q prefixes.
            TwoQubitBlock blk;
            blk.q0 = q0;
            blk.q1 = q1;
            std::vector<int> prefix;
            for (int q : {q0, q1})
                for (int p : b.pending_1q[q])
                    prefix.push_back(p);
            std::sort(prefix.begin(), prefix.end());
            b.close_wire(q0);
            b.close_wire(q1);
            blk.gate_indices = std::move(prefix);
            blk.gate_indices.push_back(idx);
            blk.num_2q = 1;
            b.blocks.push_back(std::move(blk));
            b.open[q0] = static_cast<int>(b.blocks.size()) - 1;
            b.open[q1] = b.open[q0];
            continue;
        }
        // Barrier / measure / >=3q gate: hard break on all touched wires.
        for (int q : g.qubits)
            b.close_wire(q);
    }
    return b.blocks;
}

ConsolidateStats
consolidate_2q_blocks(QuantumCircuit &qc, Basis1q basis)
{
    SynthMemo memo;
    return consolidate_2q_blocks(qc, basis, memo);
}

ConsolidateStats
consolidate_2q_blocks(QuantumCircuit &qc, Basis1q basis, SynthMemo &memo)
{
    ConsolidateStats stats;
    std::vector<TwoQubitBlock> blocks = collect_2q_blocks(qc);

    // Decide replacements.
    size_t n = qc.size();
    std::vector<bool> removed(n, false);
    // Replacement gate lists anchored at a block's *last* gate index so
    // the new gates appear where the block ended.
    std::vector<std::vector<Gate>> anchored(n);
    std::vector<std::uint64_t> key;

    for (const TwoQubitBlock &blk : blocks) {
        if (blk.num_2q == 0)
            continue;
        ++stats.blocks_considered;

        // Old cost and memo key in one pass over the members.
        int old_cost = 0;
        int old_total = static_cast<int>(blk.gate_indices.size());
        key.assign({SynthMemo::kBlock2q, static_cast<std::uint64_t>(basis)});
        for (int idx : blk.gate_indices) {
            const Gate &g = qc.gate(idx);
            old_cost += cx_equivalent_cost(g);
            SynthMemo::append_gate_key(key, g, g.qubits[0] == blk.q1);
        }
        stats.cx_before += old_cost;
        const std::uint64_t hash = SynthMemo::hash(key.data(), key.size());

        std::vector<Gate> &slot = anchored[blk.gate_indices.back()];
        bool better;
        int new_cost;
        if (const SynthMemo::Entry *e =
                memo.find(key.data(), key.size(), hash)) {
            ++stats.blocks_reused;
            better = e->replace;
            new_cost = e->new_cost;
            if (better)
                memo.append_gates(*e, blk.q0, blk.q1, slot);
        } else {
            Mat4 u = Mat4::identity();
            for (int idx : blk.gate_indices)
                accumulate_2q_gate(u, qc.gate(idx), blk.q0, blk.q1);
            std::vector<Gate> synth = synth_2q_kak(u, 0, 1, basis);
            new_cost = 0;
            for (const Gate &g : synth)
                new_cost += cx_equivalent_cost(g);
            better = new_cost < old_cost ||
                     (new_cost == old_cost &&
                      static_cast<int>(synth.size()) < old_total);
            memo.insert(key.data(), key.size(), hash, better, new_cost,
                        synth);
            if (better) {
                for (Gate &g : synth) {
                    for (int &q : g.qubits)
                        q = q == 0 ? blk.q0 : blk.q1;
                    slot.push_back(std::move(g));
                }
            }
        }
        if (!better) {
            stats.cx_after += old_cost;
            continue;
        }
        ++stats.blocks_replaced;
        stats.cx_after += new_cost;
        for (int idx : blk.gate_indices)
            removed[idx] = true;
    }

    // Every kept gate is already on the register and every replacement
    // on its block's wires, so the new list is assembled directly.
    std::vector<Gate> &gates = qc.mutable_gates();
    std::vector<Gate> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (!anchored[i].empty()) {
            for (Gate &g : anchored[i])
                out.push_back(std::move(g));
            continue;
        }
        if (!removed[i])
            out.push_back(std::move(gates[i]));
    }
    gates = std::move(out);
    return stats;
}

} // namespace nassc
