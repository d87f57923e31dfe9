#include "nassc/ir/op_kind.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>
#include <utility>

namespace nassc {

const char *
op_name(OpKind k)
{
    switch (k) {
      case OpKind::kId: return "id";
      case OpKind::kX: return "x";
      case OpKind::kY: return "y";
      case OpKind::kZ: return "z";
      case OpKind::kH: return "h";
      case OpKind::kS: return "s";
      case OpKind::kSdg: return "sdg";
      case OpKind::kT: return "t";
      case OpKind::kTdg: return "tdg";
      case OpKind::kSX: return "sx";
      case OpKind::kSXdg: return "sxdg";
      case OpKind::kRX: return "rx";
      case OpKind::kRY: return "ry";
      case OpKind::kRZ: return "rz";
      case OpKind::kP: return "p";
      case OpKind::kU: return "u";
      case OpKind::kCX: return "cx";
      case OpKind::kCY: return "cy";
      case OpKind::kCZ: return "cz";
      case OpKind::kCH: return "ch";
      case OpKind::kCP: return "cp";
      case OpKind::kCRX: return "crx";
      case OpKind::kCRY: return "cry";
      case OpKind::kCRZ: return "crz";
      case OpKind::kRZZ: return "rzz";
      case OpKind::kRXX: return "rxx";
      case OpKind::kSwap: return "swap";
      case OpKind::kISwap: return "iswap";
      case OpKind::kCCX: return "ccx";
      case OpKind::kCCZ: return "ccz";
      case OpKind::kCSwap: return "cswap";
      case OpKind::kMCX: return "mcx";
      case OpKind::kBarrier: return "barrier";
      case OpKind::kMeasure: return "measure";
    }
    return "?";
}

namespace {

/** A name of at most 7 characters as one integer: its bytes, then its
 *  length in the top byte.  Every mnemonic fits; longer names map to 0,
 *  as does the empty name, which no mnemonic is. */
std::uint64_t
pack_name(std::string_view name)
{
    if (name.size() > 7)
        return 0;
    std::uint64_t v = 0;
    std::memcpy(&v, name.data(), name.size());
    return v | static_cast<std::uint64_t>(name.size()) << 56;
}

} // namespace

std::optional<OpKind>
op_from_name(std::string_view name)
{
    // A binary search over packed names: a lookup neither copies nor
    // hashes the name.
    using Entry = std::pair<std::uint64_t, OpKind>;
    constexpr int kKinds = static_cast<int>(OpKind::kMeasure) + 1;
    static const auto table = [] {
        std::array<Entry, kKinds + 5> t;
        for (int i = 0; i < kKinds; ++i) {
            const OpKind k = static_cast<OpKind>(i);
            t[i] = {pack_name(op_name(k)), k};
        }
        // Common aliases.
        t[kKinds + 0] = {pack_name("u3"), OpKind::kU};
        t[kKinds + 1] = {pack_name("u1"), OpKind::kP};
        t[kKinds + 2] = {pack_name("cnot"), OpKind::kCX};
        t[kKinds + 3] = {pack_name("toffoli"), OpKind::kCCX};
        t[kKinds + 4] = {pack_name("cphase"), OpKind::kCP};
        std::sort(t.begin(), t.end());
        return t;
    }();
    const std::uint64_t key = pack_name(name);
    const auto it = std::lower_bound(
        table.begin(), table.end(), key,
        [](const Entry &e, std::uint64_t k) { return e.first < k; });
    if (key == 0 || it == table.end() || it->first != key)
        return std::nullopt;
    return it->second;
}

int
op_arity(OpKind k)
{
    switch (k) {
      case OpKind::kMCX:
      case OpKind::kBarrier:
        return -1;
      case OpKind::kCCX:
      case OpKind::kCCZ:
      case OpKind::kCSwap:
        return 3;
      case OpKind::kCX:
      case OpKind::kCY:
      case OpKind::kCZ:
      case OpKind::kCH:
      case OpKind::kCP:
      case OpKind::kCRX:
      case OpKind::kCRY:
      case OpKind::kCRZ:
      case OpKind::kRZZ:
      case OpKind::kRXX:
      case OpKind::kSwap:
      case OpKind::kISwap:
        return 2;
      default:
        return 1;
    }
}

int
op_num_params(OpKind k)
{
    switch (k) {
      case OpKind::kRX:
      case OpKind::kRY:
      case OpKind::kRZ:
      case OpKind::kP:
      case OpKind::kCP:
      case OpKind::kCRX:
      case OpKind::kCRY:
      case OpKind::kCRZ:
      case OpKind::kRZZ:
      case OpKind::kRXX:
        return 1;
      case OpKind::kU:
        return 3;
      default:
        return 0;
    }
}

bool
is_one_qubit(OpKind k)
{
    return op_arity(k) == 1 && k != OpKind::kMeasure && k != OpKind::kBarrier;
}

bool
is_two_qubit(OpKind k)
{
    return op_arity(k) == 2;
}

bool
is_self_inverse(OpKind k)
{
    switch (k) {
      case OpKind::kId:
      case OpKind::kX:
      case OpKind::kY:
      case OpKind::kZ:
      case OpKind::kH:
      case OpKind::kCX:
      case OpKind::kCY:
      case OpKind::kCZ:
      case OpKind::kCH:
      case OpKind::kSwap:
      case OpKind::kCCX:
      case OpKind::kCCZ:
      case OpKind::kCSwap:
        return true;
      default:
        return false;
    }
}

bool
is_diagonal(OpKind k)
{
    switch (k) {
      case OpKind::kId:
      case OpKind::kZ:
      case OpKind::kS:
      case OpKind::kSdg:
      case OpKind::kT:
      case OpKind::kTdg:
      case OpKind::kRZ:
      case OpKind::kP:
      case OpKind::kCZ:
      case OpKind::kCP:
      case OpKind::kCRZ:
      case OpKind::kRZZ:
      case OpKind::kCCZ:
        return true;
      default:
        return false;
    }
}

bool
is_unitary_op(OpKind k)
{
    return k != OpKind::kBarrier && k != OpKind::kMeasure;
}

} // namespace nassc
