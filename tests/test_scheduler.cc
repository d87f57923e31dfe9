// Tests for the work-stealing job scheduler (service/scheduler.h):
//
//  (a) index coverage and the per-job slot contract (slots < cap,
//      unique concurrent occupancy, caller owns slot 0);
//  (b) the headline multi-job property: concurrent top-level submitters
//      make interleaved progress — no whole-job serialization — even
//      while submitted tasks hold every pool worker (a pool that runs
//      one job at a time behind a submit mutex deadlocks here);
//  (c) determinism: per-index results are identical for every worker
//      count and steal schedule;
//  (d) deterministic lowest-index exception selection with sibling
//      isolation in parallel_for;
//  (e) one-task submit(): returns at once, a throwing task spares its
//      worker, submission from inside a task, priorities, cancel();
//  (f) nested-parallelism guard and ensure_workers growth;
//  (g) DistanceCache under concurrent mixed backends driven through the
//      scheduler: exactly-once compute per key, coherent stats();
//  (h) CallerSlot: a caller borrows only a parked worker's place, a
//      worker does not claim while its place is borrowed, and the
//      release wakes it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/ir/fnv1a.h"
#include "nassc/service/distance_cache.h"
#include "nassc/service/failpoint.h"
#include "nassc/service/scheduler.h"
#include "nassc/topo/backends.h"
#include "pinned_worker.h"

namespace nassc {
namespace {

/** Spin until `pred` or ~5 s; returns whether pred came true. */
template <typename Pred>
bool
spin_until(Pred pred)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(Scheduler, RunsEveryIndexExactlyOnce)
{
    Scheduler sched(4);
    for (std::size_t count : {0u, 1u, 3u, 64u, 1000u}) {
        std::vector<std::atomic<int>> hits(count);
        sched.parallel_for(count, [&](std::size_t i, int) {
            hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(Scheduler, SlotContractHoldsUnderStealing)
{
    // Slots are per-JOB scratch ids: always < cap, never concurrently
    // occupied by two tasks of the same job, and the caller is slot 0.
    Scheduler sched(4);
    const int cap = 3;
    std::vector<std::atomic<int>> occupied(cap);
    std::atomic<int> violations{0};
    std::atomic<bool> caller_got_slot0{false};
    const std::thread::id caller = std::this_thread::get_id();

    sched.parallel_for(
        256,
        [&](std::size_t, int slot) {
            if (slot < 0 || slot >= cap) {
                violations.fetch_add(1);
                return;
            }
            if (std::this_thread::get_id() == caller) {
                caller_got_slot0 = true;
                if (slot != 0)
                    violations.fetch_add(1);
            }
            if (occupied[slot].fetch_add(1) != 0)
                violations.fetch_add(1); // two concurrent owners
            std::this_thread::yield();
            occupied[slot].fetch_sub(1);
        },
        cap);

    EXPECT_EQ(violations.load(), 0);
    EXPECT_TRUE(caller_got_slot0.load());
}

TEST(Scheduler, ConcurrentSubmittersInterleave)
{
    // Two top-level parallel_for calls whose first tasks each wait for
    // the OTHER job to have started: only interleaved execution can
    // satisfy both.  A pool that serializes whole jobs behind a submit
    // mutex times out here.
    Scheduler sched(2);
    std::atomic<int> arrived{0};
    std::atomic<int> timeouts{0};

    auto submitter = [&] {
        sched.parallel_for(4, [&](std::size_t i, int) {
            if (i == 0) {
                arrived.fetch_add(1);
                if (!spin_until([&] { return arrived.load() >= 2; }))
                    timeouts.fetch_add(1);
            }
        });
    };
    std::thread a(submitter), b(submitter);
    a.join();
    b.join();
    EXPECT_EQ(timeouts.load(), 0);
    EXPECT_EQ(arrived.load(), 2);
}

TEST(Scheduler, SubmittersProgressWhileWorkersAreSaturated)
{
    // Every pool worker is pinned inside a long-running submitted job;
    // two parallel_for callers must still interleave via their own
    // caller slots.  Releases the hostage job at the end.
    Scheduler sched(2);
    PinnedWorker first(sched), second(sched);
    ASSERT_TRUE(
        spin_until([&] { return first.pinned() && second.pinned(); }));

    std::atomic<int> arrived{0};
    std::atomic<int> timeouts{0};
    auto submitter = [&] {
        sched.parallel_for(3, [&](std::size_t i, int) {
            if (i == 0) {
                arrived.fetch_add(1);
                if (!spin_until([&] { return arrived.load() >= 2; }))
                    timeouts.fetch_add(1);
            }
        });
    };
    std::thread a(submitter), b(submitter);
    a.join();
    b.join();
    EXPECT_EQ(timeouts.load(), 0);
}

TEST(Scheduler, PerIndexResultsAreScheduleInvariant)
{
    // The determinism contract the routing clients build on: work that
    // derives everything from its index produces identical output for
    // every worker count, including under concurrent foreign load.
    auto run = [](Scheduler &sched, int cap) {
        std::vector<std::uint64_t> out(512);
        sched.parallel_for(
            out.size(),
            [&](std::size_t i, int) {
                Fnv1a mix;
                mix.u32(0xbeefu);
                mix.u64(i);
                out[i] = mix.value();
            },
            cap);
        return out;
    };
    Scheduler sched(8);
    const std::vector<std::uint64_t> want = run(sched, 1);
    for (int cap : {2, 4, 0}) {
        // Foreign load perturbs the steal schedule, never the results.
        std::atomic<int> noise{0};
        for (int i = 0; i < 64; ++i)
            sched.submit([&] {
                std::this_thread::yield();
                noise.fetch_add(1);
            });
        EXPECT_EQ(run(sched, cap), want) << "cap " << cap;
        EXPECT_TRUE(spin_until([&] { return noise.load() == 64; }));
    }
}

TEST(Scheduler, LowestIndexExceptionWinsAndSiblingsStillRun)
{
    for (int threads : {1, 4}) {
        Scheduler sched(threads);
        std::vector<std::atomic<int>> done(64);
        try {
            sched.parallel_for(64, [&](std::size_t i, int) {
                if (i == 7 || i == 23 || i == 41)
                    throw std::runtime_error("boom " + std::to_string(i));
                done[i].fetch_add(1);
            });
            FAIL() << "expected an exception (threads=" << threads << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 7");
        }
        for (std::size_t i = 0; i < 64; ++i) {
            if (i == 7 || i == 23 || i == 41)
                continue;
            EXPECT_EQ(done[i].load(), 1) << "index " << i;
        }
    }
}

TEST(Scheduler, SubmitReturnsImmediatelyAndAThrowSparesTheWorker)
{
    Scheduler sched(1);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    Scheduler::JobHandle h = sched.submit([&] {
        spin_until([&] { return release.load(); });
        ran.fetch_add(1);
        throw std::runtime_error("async boom");
    });
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(ran.load(), 0); // nothing can finish before release
    release = true;
    // The throw is dropped: the one worker lives on to run the next task.
    sched.submit([&] { ran.fetch_add(1); });
    EXPECT_TRUE(spin_until([&] { return ran.load() == 2; }));
    EXPECT_FALSE(Scheduler::JobHandle{}.valid());
    EXPECT_FALSE(Scheduler::JobHandle{}.cancel()); // unbound: nothing to drop
}

TEST(Scheduler, SubmitFromInsideATaskIsAllowed)
{
    // Enqueueing never blocks, so tasks may fan follow-up work out
    // asynchronously.
    Scheduler sched(2);
    std::atomic<int> inner{0};
    sched.parallel_for(4, [&](std::size_t, int) {
        for (int k = 0; k < 4; ++k)
            sched.submit([&] { inner.fetch_add(1); });
    });
    EXPECT_TRUE(spin_until([&] { return inner.load() == 16; }));
}

TEST(Scheduler, NestedParallelForRunsInline)
{
    Scheduler sched(4);
    std::atomic<int> inner_total{0};
    std::atomic<int> nested_off_thread{0};

    EXPECT_FALSE(Scheduler::in_task());
    sched.parallel_for(8, [&](std::size_t, int) {
        EXPECT_TRUE(Scheduler::in_task());
        const std::thread::id me = std::this_thread::get_id();
        sched.parallel_for(16, [&](std::size_t, int slot) {
            inner_total.fetch_add(1);
            if (std::this_thread::get_id() != me || slot != 0)
                nested_off_thread.fetch_add(1);
        });
    });
    EXPECT_FALSE(Scheduler::in_task());
    EXPECT_EQ(inner_total.load(), 8 * 16);
    EXPECT_EQ(nested_off_thread.load(), 0);
}

TEST(Scheduler, MaxWorkersOneRunsInlineOnCaller)
{
    Scheduler sched(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    sched.parallel_for(
        32,
        [&](std::size_t, int slot) {
            if (std::this_thread::get_id() != caller || slot != 0)
                off_thread.fetch_add(1);
        },
        /*max_workers=*/1);
    EXPECT_EQ(off_thread.load(), 0);
}

TEST(Scheduler, EnsureWorkersGrowsButNeverShrinks)
{
    Scheduler sched(1);
    EXPECT_EQ(sched.num_threads(), 1);
    EXPECT_EQ(sched.ensure_workers(4), 3); // 4 slots incl. the caller
    EXPECT_EQ(sched.num_threads(), 3);
    EXPECT_EQ(sched.ensure_workers(2), 3); // no shrink
    std::atomic<int> n{0};
    sched.parallel_for(100, [&](std::size_t, int) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 100);
}

TEST(Scheduler, SharedSchedulerIsAProcessSingleton)
{
    Scheduler &a = Scheduler::shared();
    Scheduler &b = Scheduler::shared();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.num_threads(), 1);
}

TEST(Scheduler, ManySubmittersStress)
{
    Scheduler sched(4);
    std::atomic<long> total{0};
    auto submitter = [&](int rounds) {
        for (int r = 0; r < rounds; ++r)
            sched.parallel_for(32, [&](std::size_t, int) {
                total.fetch_add(1);
            });
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back(submitter, 25);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(total.load(), 4L * 25 * 32);
}

TEST(Scheduler, DistanceCacheMixedBackendStress)
{
    // Satellite coverage: many concurrent requesters, three backends x
    // two metrics, driven through scheduler tasks AND async jobs at
    // once.  Every key computes exactly once; all requesters for one
    // key share the identical provider object; stats() is coherent.
    auto montreal = montreal_backend();
    auto linear = linear_backend(25);
    auto grid = grid_backend(5, 5);
    const Backend *backends[3] = {&montreal, &linear, &grid};

    DistanceCache cache;
    constexpr std::size_t kTasks = 96;
    std::vector<SharedDistanceProvider> got(kTasks);

    auto fetch = [&](std::size_t i) {
        const Backend &b = *backends[i % 3];
        const DistanceRequest req = (i / 3) % 2 ? DistanceRequest::noise()
                                                : DistanceRequest::hops();
        return cache.provider(b, req);
    };

    Scheduler sched(4);
    std::atomic<std::size_t> async_done{0};
    for (std::size_t i = 0; i < kTasks / 2; ++i)
        sched.submit([&, i] {
            got[i] = fetch(i);
            async_done.fetch_add(1);
        });
    sched.parallel_for(kTasks / 2, [&](std::size_t i, int) {
        got[kTasks / 2 + i] = fetch(kTasks / 2 + i);
    });
    ASSERT_TRUE(spin_until([&] { return async_done.load() == kTasks / 2; }));

    const DistanceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.computations, 6u); // 3 backends x 2 metrics
    EXPECT_EQ(stats.entries, 6u);
    EXPECT_EQ(stats.hits, kTasks - 6u);

    // Pointer identity: one shared provider per key, ever.
    std::set<const DistanceProvider *> distinct;
    for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_NE(got[i], nullptr) << "task " << i;
        EXPECT_EQ(got[i].get(), fetch(i).get()) << "task " << i;
        distinct.insert(got[i].get());
    }
    EXPECT_EQ(distinct.size(), 6u);
}

TEST(Scheduler, HigherPriorityJobsAreClaimedFirst)
{
    // One worker, held hostage while three single-task jobs queue up at
    // priorities 0, 5, 1: the claim order after release must be by
    // descending priority, deterministically.
    Scheduler sched(1);
    PinnedWorker hostage(sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    std::mutex mu;
    std::vector<int> order;
    auto tagged = [&](int tag) {
        return [&, tag] {
            std::lock_guard<std::mutex> lk(mu);
            order.push_back(tag);
        };
    };
    sched.submit(tagged(0), /*priority=*/0);
    sched.submit(tagged(5), /*priority=*/5);
    sched.submit(tagged(1), /*priority=*/1);

    hostage.release();
    ASSERT_TRUE(spin_until([&] {
        std::lock_guard<std::mutex> lk(mu);
        return order.size() == 3;
    }));
    EXPECT_EQ(order[0], 5);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 0);
}

TEST(Scheduler, CancelDropsUnclaimedTasks)
{
    // Worker pinned -> the task cannot be claimed -> cancel() drops it
    // and its fn never runs.
    Scheduler sched(1);
    PinnedWorker hostage(sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    std::atomic<int> ran{0};
    std::atomic<int> after{0};
    Scheduler::JobHandle job = sched.submit([&] { ran.fetch_add(1); });
    EXPECT_TRUE(job.cancel());

    // A task submitted after the dropped one runs once the worker is
    // free; by then the dropped one would have run too.
    sched.submit([&] { after.fetch_add(1); });
    hostage.release();
    ASSERT_TRUE(spin_until([&] { return after.load() == 1; }));
    EXPECT_EQ(ran.load(), 0);
    // Idempotent: a dropped task cannot be dropped again.
    EXPECT_FALSE(job.cancel());
}

TEST(Scheduler, CancelAfterCompletionIsANoOp)
{
    Scheduler sched(2);
    std::atomic<int> ran{0};
    Scheduler::JobHandle job = sched.submit([&] { ran.fetch_add(1); });
    ASSERT_TRUE(spin_until([&] { return ran.load() == 1; }));
    EXPECT_FALSE(job.cancel());
}

TEST(Scheduler, ClaimFailpointFiresPerTaskAndDisarms)
{
    // The scheduler.claim site fires once per claimed task; a counted
    // trigger burns down and auto-disarms, leaving later jobs clean.
    failpoint::disarm_all();
    failpoint::arm("scheduler.claim", "3*trigger");

    Scheduler sched(2);
    std::atomic<int> ran{0};
    auto run_tasks = [&](int n) {
        const int want = ran.load() + n;
        for (int i = 0; i < n; ++i)
            sched.submit([&] { ran.fetch_add(1); });
        return spin_until([&] { return ran.load() == want; });
    };
    ASSERT_TRUE(run_tasks(5)); // kTrigger at this site is count-only
    EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 3u);

    ASSERT_TRUE(run_tasks(4));
    EXPECT_EQ(ran.load(), 9);
    // Counts persist after auto-disarm (until disarm_all).
    EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 3u);
    failpoint::disarm_all();
    EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 0u);
}

/** Whether a CallerSlot on `sched` can be held right now. */
bool
borrowable(Scheduler &sched)
{
    Scheduler::CallerSlot slot(sched);
    return slot.held();
}

TEST(Scheduler, CallerSlotBorrowsOnlyAParkedWorkersPlace)
{
    Scheduler sched(1);
    // The worker parks once it finds nothing to claim.
    ASSERT_TRUE(spin_until([&] { return borrowable(sched); }));
    {
        Scheduler::CallerSlot first(sched);
        ASSERT_TRUE(first.held());
        // The one parked worker's place is taken.
        EXPECT_FALSE(borrowable(sched));
    }
    EXPECT_TRUE(borrowable(sched));

    // A busy worker is not parked: nothing to borrow, and never from
    // inside a task.
    std::atomic<int> in_task_borrows{-1};
    sched.submit([&] { in_task_borrows = borrowable(sched) ? 1 : 0; });
    ASSERT_TRUE(spin_until([&] { return in_task_borrows.load() >= 0; }));
    EXPECT_EQ(in_task_borrows.load(), 0);
    PinnedWorker hostage(sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));
    EXPECT_FALSE(borrowable(sched));
    hostage.release();
    EXPECT_TRUE(spin_until([&] { return borrowable(sched); }));
}

TEST(Scheduler, HeldCallerSlotRunsAsATask)
{
    Scheduler sched(2);
    ASSERT_TRUE(spin_until([&] { return borrowable(sched); }));
    const std::thread::id me = std::this_thread::get_id();
    EXPECT_FALSE(Scheduler::in_task());
    {
        Scheduler::CallerSlot slot(sched);
        ASSERT_TRUE(slot.held());
        EXPECT_TRUE(Scheduler::in_task());
        std::atomic<int> off_thread{0};
        sched.parallel_for(16, [&](std::size_t, int s) {
            if (std::this_thread::get_id() != me || s != 0)
                off_thread.fetch_add(1);
        });
        EXPECT_EQ(off_thread.load(), 0); // the nesting guard held
    }
    EXPECT_FALSE(Scheduler::in_task());
}

TEST(Scheduler, WorkerDoesNotClaimWhileItsPlaceIsBorrowed)
{
    for (int workers : {1, 2}) {
        Scheduler sched(workers);
        // One holder thread per place: a thread holding a place runs as
        // a task, so it cannot borrow a second one.  Holder i returns
        // its place once `returned` exceeds i.
        std::atomic<int> holding{0};
        std::atomic<int> returned{0};
        std::vector<std::thread> holders;
        for (int i = 0; i < workers; ++i) {
            holders.emplace_back([&, i] {
                std::unique_ptr<Scheduler::CallerSlot> slot;
                if (spin_until([&] {
                        slot = std::make_unique<Scheduler::CallerSlot>(sched);
                        return slot->held();
                    }))
                    holding.fetch_add(1);
                while (returned.load() <= i)
                    std::this_thread::yield();
            });
        }
        const bool all_held =
            spin_until([&] { return holding.load() == workers; });
        EXPECT_TRUE(all_held) << workers;
        EXPECT_FALSE(borrowable(sched)) << workers;

        // Every place is borrowed: the job is queued, and no worker may
        // run it, since that would run more than num_threads() tasks.
        std::atomic<int> ran{0};
        sched.submit([&] { ran.fetch_add(1); });
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_EQ(ran.load(), 0) << workers;

        // Returning one place wakes a parked worker to claim the task.
        returned = 1;
        EXPECT_TRUE(spin_until([&] { return ran.load() == 1; })) << workers;
        returned = workers;
        for (std::thread &t : holders)
            t.join();
    }
}

} // namespace
} // namespace nassc
