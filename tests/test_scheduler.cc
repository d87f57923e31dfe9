// Tests for the work-stealing job scheduler (service/scheduler.h):
//
//  (a) index coverage and the per-job slot contract (slots < cap,
//      unique concurrent occupancy, caller owns slot 0);
//  (b) the headline multi-job property: concurrent top-level submitters
//      make interleaved progress — no whole-job serialization — even
//      while a third job has every pool worker busy (a pool that runs
//      one job at a time behind a submit mutex deadlocks here);
//  (c) determinism: per-index results are identical for every worker
//      count and steal schedule;
//  (d) deterministic lowest-index exception selection with sibling
//      isolation, on both the blocking and async paths;
//  (e) async submit(): JobHandle wait/done, wait-rethrow, submission
//      from inside a task;
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
    std::atomic<bool> release{false};
    std::atomic<int> pinned{0};
    Scheduler::JobHandle hostage = sched.submit(2, [&](std::size_t, int) {
        pinned.fetch_add(1);
        spin_until([&] { return release.load(); });
    });
    ASSERT_TRUE(spin_until([&] { return pinned.load() == 2; }));

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
    release = true;
    hostage.wait();
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
        Scheduler::JobHandle noise =
            sched.submit(64, [](std::size_t, int) {
                std::this_thread::yield();
            });
        EXPECT_EQ(run(sched, cap), want) << "cap " << cap;
        noise.wait();
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

TEST(Scheduler, SubmitReturnsImmediatelyAndWaitRethrows)
{
    Scheduler sched(2);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    Scheduler::JobHandle h = sched.submit(8, [&](std::size_t i, int) {
        spin_until([&] { return release.load(); });
        ran.fetch_add(1);
        if (i == 2 || i == 5)
            throw std::runtime_error("async boom " + std::to_string(i));
    });
    ASSERT_TRUE(h.valid());
    EXPECT_FALSE(h.done()); // nothing can finish before release
    release = true;
    try {
        h.wait();
        FAIL() << "expected the async exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "async boom 2"); // lowest index, always
    }
    EXPECT_TRUE(h.done());
    EXPECT_EQ(ran.load(), 8); // throwing siblings did not cancel the rest
    EXPECT_NO_THROW(Scheduler::JobHandle{}.wait()); // unbound = done
    EXPECT_TRUE(Scheduler::JobHandle{}.done());
}

TEST(Scheduler, SubmitFromInsideATaskIsAllowed)
{
    // Enqueueing never blocks, so tasks may fan follow-up work out
    // asynchronously; only JobHandle::wait() is restricted in-task.
    Scheduler sched(2);
    std::atomic<int> inner{0};
    std::vector<Scheduler::JobHandle> handles(4);
    std::mutex mu;
    sched.parallel_for(4, [&](std::size_t i, int) {
        auto h = sched.submit(4, [&](std::size_t, int) {
            inner.fetch_add(1);
        });
        std::lock_guard<std::mutex> lk(mu);
        handles[i] = std::move(h);
    });
    for (auto &h : handles)
        h.wait();
    EXPECT_EQ(inner.load(), 16);
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
    Scheduler::JobHandle async = sched.submit(kTasks / 2, [&](std::size_t i,
                                                              int) {
        got[i] = fetch(i);
    });
    sched.parallel_for(kTasks / 2, [&](std::size_t i, int) {
        got[kTasks / 2 + i] = fetch(kTasks / 2 + i);
    });
    async.wait();

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
    std::atomic<bool> release{false};
    std::atomic<int> pinned{0};
    Scheduler::JobHandle hostage = sched.submit(1, [&](std::size_t, int) {
        pinned.fetch_add(1);
        spin_until([&] { return release.load(); });
    });
    ASSERT_TRUE(spin_until([&] { return pinned.load() == 1; }));

    std::mutex mu;
    std::vector<int> order;
    auto tagged = [&](int tag) {
        return [&, tag](std::size_t, int) {
            std::lock_guard<std::mutex> lk(mu);
            order.push_back(tag);
        };
    };
    Scheduler::JobHandle low = sched.submit(1, tagged(0), 0, /*priority=*/0);
    Scheduler::JobHandle high = sched.submit(1, tagged(5), 0, /*priority=*/5);
    Scheduler::JobHandle mid = sched.submit(1, tagged(1), 0, /*priority=*/1);

    release = true;
    hostage.wait();
    low.wait();
    high.wait();
    mid.wait();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 5);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 0);
}

TEST(Scheduler, CancelDropsUnclaimedTasks)
{
    // Worker pinned -> none of the 4 tasks can be claimed -> cancel()
    // drops all of them, the job completes, and the fn never ran.
    Scheduler sched(1);
    std::atomic<bool> release{false};
    std::atomic<int> pinned{0};
    Scheduler::JobHandle hostage = sched.submit(1, [&](std::size_t, int) {
        pinned.fetch_add(1);
        spin_until([&] { return release.load(); });
    });
    ASSERT_TRUE(spin_until([&] { return pinned.load() == 1; }));

    std::atomic<int> ran{0};
    Scheduler::JobHandle job =
        sched.submit(4, [&](std::size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(job.cancel(), 4u);
    EXPECT_TRUE(job.done()); // dropped tasks count as completed
    job.wait();              // returns immediately, no exception

    release = true;
    hostage.wait();
    EXPECT_EQ(ran.load(), 0);
    // Idempotent, and a no-op once everything is claimed or dropped.
    EXPECT_EQ(job.cancel(), 0u);
}

TEST(Scheduler, CancelAfterCompletionIsANoOp)
{
    Scheduler sched(2);
    std::atomic<int> ran{0};
    Scheduler::JobHandle job =
        sched.submit(3, [&](std::size_t, int) { ran.fetch_add(1); });
    job.wait();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(job.cancel(), 0u);
    EXPECT_TRUE(job.done());
}

TEST(Scheduler, NestedInlineParallelForInheritsDeadline)
{
    // A parallel_for from inside a task runs inline; the inline tasks
    // must still see the enclosing task's deadline, not a blank slate.
    using Clock = std::chrono::steady_clock;
    Scheduler sched(1);
    EXPECT_EQ(Scheduler::current_job_deadline(), Clock::time_point::max());
    const Clock::time_point deadline = Clock::now() + std::chrono::hours(2);

    std::atomic<int> inner_saw_deadline{0};
    sched
        .submit(1,
                [&](std::size_t, int) {
                    Scheduler::DeadlineScope budget(deadline);
                    sched.parallel_for(2, [&](std::size_t, int) {
                        if (Scheduler::current_job_deadline() == deadline)
                            inner_saw_deadline.fetch_add(1);
                    });
                })
        .wait();
    EXPECT_EQ(inner_saw_deadline.load(), 2);
}

TEST(Scheduler, ParallelForPropagatesCallerDeadlineToPoolWorkers)
{
    // parallel_for stamps the CALLER's thread-local deadline onto the
    // pool job it creates, so indices stolen by pool workers run under
    // the same budget as indices the caller runs itself.  A past
    // deadline reads as expired on every one of them.
    using Clock = std::chrono::steady_clock;
    Scheduler sched(4);
    const Clock::time_point deadline = Clock::now() + std::chrono::hours(3);

    std::atomic<int> with_deadline{0};
    std::atomic<int> off_caller{0};
    const std::thread::id caller = std::this_thread::get_id();
    {
        Scheduler::DeadlineScope budget(deadline);
        sched.parallel_for(16, [&](std::size_t, int) {
            if (Scheduler::current_job_deadline() == deadline)
                with_deadline.fetch_add(1);
            if (std::this_thread::get_id() != caller)
                off_caller.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
    }
    EXPECT_EQ(with_deadline.load(), 16);
    EXPECT_GT(off_caller.load(), 0); // the budget reached pool workers
    EXPECT_EQ(Scheduler::current_job_deadline(), Clock::time_point::max());

    std::atomic<int> expired{0};
    {
        Scheduler::DeadlineScope past(Clock::now() - std::chrono::seconds(1));
        sched.parallel_for(8, [&](std::size_t, int) {
            if (Scheduler::current_job_expired())
                expired.fetch_add(1);
        });
    }
    EXPECT_EQ(expired.load(), 8);
    EXPECT_FALSE(Scheduler::current_job_expired());
}

TEST(Scheduler, ClaimFailpointFiresPerTaskAndDisarms)
{
    // The scheduler.claim site fires once per claimed task; a counted
    // trigger burns down and auto-disarms, leaving later jobs clean.
    failpoint::disarm_all();
    failpoint::arm("scheduler.claim", "3*trigger");

    Scheduler sched(2);
    std::atomic<int> ran{0};
    sched.submit(5, [&](std::size_t, int) { ran.fetch_add(1); }).wait();
    EXPECT_EQ(ran.load(), 5); // kTrigger at this site is count-only
    EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 3u);

    sched.submit(4, [&](std::size_t, int) { ran.fetch_add(1); }).wait();
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

    // A busy worker is not parked: nothing to borrow.
    std::atomic<bool> release{false};
    std::atomic<int> pinned{0};
    Scheduler::JobHandle hostage = sched.submit(1, [&](std::size_t, int) {
        pinned.fetch_add(1);
        EXPECT_FALSE(borrowable(sched)); // never from inside a task
        while (!release.load())
            std::this_thread::yield();
    });
    ASSERT_TRUE(spin_until([&] { return pinned.load() == 1; }));
    EXPECT_FALSE(borrowable(sched));
    release = true;
    hostage.wait();
    EXPECT_TRUE(spin_until([&] { return borrowable(sched); }));
}

TEST(Scheduler, HeldCallerSlotRunsAsATask)
{
    Scheduler sched(2);
    ASSERT_TRUE(spin_until([&] { return borrowable(sched); }));
    const std::thread::id me = std::this_thread::get_id();
    EXPECT_FALSE(Scheduler::in_task());
    {
        // An enclosing budget does not leak into the borrowed place: it
        // starts unbounded, as a worker's task does.
        Scheduler::DeadlineScope budget(std::chrono::steady_clock::now());
        Scheduler::CallerSlot slot(sched);
        ASSERT_TRUE(slot.held());
        EXPECT_TRUE(Scheduler::in_task());
        EXPECT_FALSE(Scheduler::current_job_expired());
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
        Scheduler::JobHandle job = sched.submit(
            1, [&](std::size_t, int) { ran.fetch_add(1); });
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_EQ(ran.load(), 0) << workers;
        EXPECT_FALSE(job.done()) << workers;

        // Returning one place wakes a parked worker to claim the job.
        returned = 1;
        job.wait();
        EXPECT_EQ(ran.load(), 1);
        returned = workers;
        for (std::thread &t : holders)
            t.join();
    }
}

} // namespace
} // namespace nassc
