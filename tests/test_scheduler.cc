// Tests for the one-task worker pool (service/scheduler.h):
//
//  (a) submit(): returns at once, a throwing task spares its worker,
//      submission from inside a task and from many threads at once,
//      the destructor drains the queue, ensure_workers growth;
//  (b) claim order: higher priorities first, equal priorities in
//      arrival order;
//  (c) cancel() drops only unclaimed tasks; the scheduler.claim
//      failpoint counts claims, and a throw armed there never loses
//      the claimed task;
//  (d) DistanceCache under concurrent mixed backends driven through
//      pool tasks and plain threads: exactly-once compute per key,
//      coherent stats();
//  (e) CallerSlot: a caller borrows only a parked worker's place, runs
//      as a task while holding it (a layout race stays on its thread),
//      a worker does not claim while its place is borrowed, and the
//      release wakes it.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/route/layout_search.h"
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
    // asynchronously — even on a one-worker pool, whose only worker is
    // the one submitting.
    Scheduler sched(1);
    std::atomic<int> inner{0};
    for (int k = 0; k < 4; ++k)
        sched.submit([&] {
            for (int j = 0; j < 4; ++j)
                sched.submit([&] { inner.fetch_add(1); });
        });
    EXPECT_TRUE(spin_until([&] { return inner.load() == 16; }));
}

TEST(Scheduler, EnsureWorkersGrowsButNeverShrinks)
{
    Scheduler sched(1);
    EXPECT_EQ(sched.num_threads(), 1);
    EXPECT_EQ(sched.ensure_workers(4), 3); // 4 threads incl. the caller
    EXPECT_EQ(sched.num_threads(), 3);
    EXPECT_EQ(sched.ensure_workers(2), 3); // no shrink
    // A task grows nothing: a race inside it never fans out.
    std::atomic<int> grown{0};
    sched.submit([&] { grown = sched.ensure_workers(8); });
    ASSERT_TRUE(spin_until([&] { return grown.load() != 0; }));
    EXPECT_EQ(grown.load(), 3);
    // The grown pool runs every task, and all three workers hold one
    // at the same time.
    std::atomic<int> together{0};
    std::atomic<int> apart{0};
    std::atomic<int> n{0};
    for (int i = 0; i < 3; ++i)
        sched.submit([&] {
            together.fetch_add(1);
            if (!spin_until([&] { return together.load() == 3; }))
                apart.fetch_add(1);
            n.fetch_add(1);
        });
    for (int i = 0; i < 97; ++i)
        sched.submit([&] { n.fetch_add(1); });
    EXPECT_TRUE(spin_until([&] { return n.load() == 100; }));
    EXPECT_EQ(apart.load(), 0);
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
    // Four threads submit while the workers claim; the destructor then
    // waits for every queued and running task.
    std::atomic<long> total{0};
    {
        Scheduler sched(4);
        auto submitter = [&](int tasks) {
            for (int i = 0; i < tasks; ++i)
                sched.submit([&] { total.fetch_add(1); });
        };
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back(submitter, 25 * 32);
        for (auto &t : threads)
            t.join();
    }
    EXPECT_EQ(total.load(), 4L * 25 * 32);
}

TEST(Scheduler, DistanceCacheMixedBackendStress)
{
    // Many concurrent requesters, three backends x two metrics, driven
    // through pool tasks AND plain threads at once.  Every key computes
    // exactly once; all requesters for one key share the identical
    // provider object; stats() is coherent.
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
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = kTasks / 2 + t; i < kTasks; i += 4)
                got[i] = fetch(i);
        });
    for (std::thread &t : threads)
        t.join();
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

TEST(Scheduler, EqualPrioritiesRunInArrivalOrder)
{
    // One worker, held hostage while tasks queue at two priorities:
    // the higher ones go first, each priority in submission order.
    Scheduler sched(1);
    PinnedWorker hostage(sched);
    ASSERT_TRUE(spin_until([&] { return hostage.pinned(); }));

    std::mutex mu;
    std::vector<int> order;
    const int tags[] = {10, 11, 20, 12, 21, 13, 22};
    for (int tag : tags)
        sched.submit(
            [&, tag] {
                std::lock_guard<std::mutex> lk(mu);
                order.push_back(tag);
            },
            /*priority=*/tag / 10);

    hostage.release();
    ASSERT_TRUE(spin_until([&] {
        std::lock_guard<std::mutex> lk(mu);
        return order.size() == 7;
    }));
    EXPECT_EQ(order, (std::vector<int>{20, 21, 22, 10, 11, 12, 13}));
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

TEST(Scheduler, AThrowAtTheClaimStillRunsTheTask)
{
    // A fault armed at scheduler.claim is counted and dropped: the
    // claimed task runs anyway, since nothing else ever would.
    failpoint::disarm_all();
    failpoint::ScopedFailpoint fault("scheduler.claim", "2*throw(claim)");
    Scheduler sched(1);
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i)
        sched.submit([&] { ran.fetch_add(1); });
    EXPECT_TRUE(spin_until([&] { return ran.load() == 3; }));
    EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 2u);
    failpoint::disarm_all();
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
    // The holder is a task: a layout race it starts stays on its
    // thread, so no pool task is claimed anywhere while it runs.
    Scheduler sched(2);
    ASSERT_TRUE(spin_until([&] { return borrowable(sched); }));
    const Backend dev = montreal_backend();
    const DistanceProvider dist = hop_distance(dev.coupling);
    RoutingOptions opts;
    opts.layout_trials = 8;
    opts.layout_threads = 4;
    EXPECT_FALSE(Scheduler::in_task());
    {
        Scheduler::CallerSlot slot(sched);
        ASSERT_TRUE(slot.held());
        EXPECT_TRUE(Scheduler::in_task());
        failpoint::disarm_all();
        failpoint::ScopedFailpoint claims("scheduler.claim", "trigger");
        const LayoutSearchResult res =
            search_and_route(ghz(5), dev.coupling, dist, opts);
        EXPECT_EQ(res.trials_consumed, 8);
        EXPECT_EQ(failpoint::hit_count("scheduler.claim"), 0u);
        failpoint::disarm_all();
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
