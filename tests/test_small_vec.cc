// Tests for the small-buffer operand storage (ir/small_vec.h) and the
// allocation-freedom it buys the routing hot path.
//
// This binary replaces the global operator new/delete with counting
// wrappers, so it can assert the central perf claim directly: after a
// warm-up pass, Router's decision loop performs ZERO heap allocations
// (SABRE end to end; NASSC's gate emission is covered through the
// SmallVec spill counter, since its tracker math owns separate
// buffers).

// The replaced operators below route through malloc/free; the
// compiler's new/delete pairing analysis cannot see that and misfires
// on every `new` in the TU (including gtest's registration machinery).
#if defined(__clang__)
#pragma clang diagnostic ignored "-Wmismatched-new-delete"
#elif defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/ir/dag.h"
#include "nassc/ir/gate.h"
#include "nassc/ir/small_vec.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/route/router.h"
#include "nassc/topo/backends.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace nassc {
namespace {

using IVec = SmallVec<int, 2>;

TEST(SmallVec, InlineUpToCapacityThenSpills)
{
    const std::uint64_t spills0 = IVec::heap_spills();
    IVec v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.is_inline());
    v.push_back(4);
    v.push_back(9);
    EXPECT_TRUE(v.is_inline());
    EXPECT_EQ(IVec::heap_spills(), spills0);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], 4);
    EXPECT_EQ(v[1], 9);

    v.push_back(16); // third element: must spill, exactly once
    EXPECT_FALSE(v.is_inline());
    EXPECT_EQ(IVec::heap_spills(), spills0 + 1);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 4);
    EXPECT_EQ(v[1], 9);
    EXPECT_EQ(v[2], 16);
}

TEST(SmallVec, VectorInteropAndComparisons)
{
    IVec a{1, 2};
    EXPECT_EQ(a, (std::vector<int>{1, 2}));
    EXPECT_NE(a, (std::vector<int>{1, 3}));
    EXPECT_EQ((std::vector<int>{1, 2}), a);

    std::vector<int> wide{5, 6, 7, 8};
    IVec b(wide);
    EXPECT_EQ(b, wide);
    EXPECT_EQ(b.to_vector(), wide);

    IVec c{1, 2};
    IVec d{1, 3};
    EXPECT_TRUE(c < d);
    EXPECT_FALSE(d < c);
    IVec e{1, 2, 5};
    EXPECT_TRUE(c < e); // shorter prefix sorts first
    EXPECT_EQ(a, c);
    EXPECT_NE(c, d);
}

TEST(SmallVec, PushBackOfOwnElementAtCapacity)
{
    // std::vector guarantees v.push_back(v[0]) even when it triggers a
    // reallocation; SmallVec must too (the growth path frees the old
    // buffer, so the value has to be copied out first).
    IVec inline_full{3, 5}; // at inline capacity
    inline_full.push_back(inline_full[0]);
    EXPECT_EQ(inline_full, (std::vector<int>{3, 5, 3}));

    IVec heap_full{1, 2, 3, 4}; // spilled, and grown to exact powers
    while (heap_full.size() < heap_full.capacity())
        heap_full.push_back(0);
    const int first = heap_full[0];
    heap_full.push_back(heap_full[0]); // realloc + self-alias
    EXPECT_EQ(heap_full.back(), first);
}

TEST(SmallVec, CopyMoveAndAssignment)
{
    IVec small{1, 2};
    IVec big{1, 2, 3, 4, 5};

    IVec small_copy = small;
    EXPECT_EQ(small_copy, small);
    IVec big_copy = big;
    EXPECT_EQ(big_copy, big);

    IVec moved = std::move(big_copy);
    EXPECT_EQ(moved, big);
    EXPECT_TRUE(big_copy.empty()); // NOLINT: post-move probe is the test

    moved = small;
    EXPECT_EQ(moved, small);
    moved = {7, 8, 9};
    EXPECT_EQ(moved, (std::vector<int>{7, 8, 9}));

    IVec from_iters(big.begin(), big.end());
    EXPECT_EQ(from_iters, big);

    // clear() keeps the buffer; refilling within capacity cannot spill.
    const std::uint64_t spills0 = IVec::heap_spills();
    moved.clear();
    moved.push_back(1);
    moved.push_back(2);
    moved.push_back(3);
    EXPECT_EQ(IVec::heap_spills(), spills0);
}

TEST(SmallVec, GateConstructionIsAllocationFree)
{
    // The exact objects the router emits per SWAP decision.  All
    // assertions run after the counting window closes, so gtest's own
    // bookkeeping cannot leak into the measurement.
    const std::uint64_t allocs0 = g_allocations.load();
    int probe;
    {
        Gate sw = Gate::two_q(OpKind::kSwap, 3, 7);
        Gate copy = sw;
        Gate u = Gate::u(5, 0.1, 0.2, 0.3); // widest param list (kU)
        Gate moved = std::move(u);
        probe = copy.qubits[1] + static_cast<int>(moved.params.size());
    }
    const std::uint64_t allocs1 = g_allocations.load();
    EXPECT_EQ(allocs1, allocs0);
    EXPECT_EQ(probe, 7 + 3);
}

TEST(SmallVec, WideGatesStillWork)
{
    // MCX operand lists spill past the inline capacity but keep full
    // vector semantics (this is the cold path).
    Gate mcx = Gate::mcx({0, 1, 2, 3}, 4);
    EXPECT_EQ(mcx.num_qubits(), 5);
    EXPECT_EQ(mcx.qubits, (std::vector<int>{0, 1, 2, 3, 4}));
    Gate copy = mcx;
    EXPECT_EQ(copy, mcx);
}

TEST(AllocationFreeRouting, SabreDecisionLoopIsAllocationFreeAfterWarmup)
{
    // The acceptance criterion of the small-buffer Gate work: one
    // warm-up pass sizes every reused buffer, then an identical pass
    // must not touch the heap at all — no Gate vectors, no scratch
    // growth, nothing.
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(qft(16));
    DagCircuit dag(logical);
    const DistanceProvider dist = hop_distance(dev.coupling);
    RoutingOptions opts; // SABRE
    Layout init(16, dev.coupling.num_qubits());

    Router router(dag, dev.coupling, dist, opts);
    Layout warm = router.route_to_layout(init); // warm-up pass (copied)

    const std::uint64_t allocs0 = g_allocations.load();
    const std::uint64_t spills0 = QubitVec::heap_spills();
    const Layout &second = router.route_to_layout(init);
    const std::uint64_t allocs1 = g_allocations.load();
    const std::uint64_t spills1 = QubitVec::heap_spills();
    EXPECT_EQ(allocs1, allocs0)
        << "SABRE decision loop allocated after warm-up";
    EXPECT_EQ(spills1, spills0);
    EXPECT_EQ(second.l2p(), warm.l2p()); // and stays deterministic
}

TEST(AllocationFreeRouting, NasscGateEmissionNeverSpills)
{
    // NASSC's tracker math owns growable windows, so total allocation
    // freedom is asserted for SABRE above; here we pin that the gates
    // themselves (emission, tracker records, moved 1q copies) never
    // leave their inline buffers across a full NASSC routing pass.
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(qft(16));
    DagCircuit dag(logical);
    const DistanceProvider dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.algorithm = RoutingAlgorithm::kNassc;
    Layout init(16, dev.coupling.num_qubits());

    Router router(dag, dev.coupling, dist, opts);
    const std::uint64_t qspills0 = QubitVec::heap_spills();
    const std::uint64_t pspills0 = ParamVec::heap_spills();
    RoutingResult res = router.run(init);
    EXPECT_GT(res.stats.num_swaps, 0);
    EXPECT_EQ(QubitVec::heap_spills(), qspills0);
    EXPECT_EQ(ParamVec::heap_spills(), pspills0);
}

} // namespace
} // namespace nassc
