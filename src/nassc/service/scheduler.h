#ifndef NASSC_SERVICE_SCHEDULER_H
#define NASSC_SERVICE_SCHEDULER_H

/**
 * @file
 * Work-stealing multi-job scheduler.
 *
 * A pool that runs ONE parallel_for at a time serializes top-level
 * submissions from distinct threads on a submit mutex, so a serving
 * process with concurrent independent batches degrades to lock-step.
 * Scheduler instead keeps PER-JOB task queues: every submitted job
 * owns its own index counter and slot table, the shared workers scan
 * the active-job list round-robin and steal one task at a time from
 * whichever job has work and a free slot, and distinct submitters
 * therefore interleave on the same workers instead of queueing behind
 * each other.
 *
 * Guarantees:
 *
 *  - fn(index, slot) runs for every index in [0, count) exactly once;
 *    any worker may execute any index, so callers write results into
 *    per-index slots and derive any randomness from the index — which
 *    is exactly how LayoutSearch (derive_trial_seed) keeps its output
 *    bit-identical for every worker count and every steal schedule.
 *  - `slot` is a stable per-JOB scratch id in [0, max_workers): a job
 *    capped at K slots never sees a slot >= K, no two tasks of one job
 *    run concurrently under the same slot, and the parallel_for caller
 *    always owns slot 0 of its own job.  Slot-indexed scratch (one
 *    Router set per slot in LayoutSearch) keeps working even though
 *    which THREAD occupies a slot changes as workers steal.
 *  - Nested-parallelism guard: a parallel_for issued from inside any
 *    task runs inline on the issuing thread, so a saturating batch
 *    degrades its inner layout trials to serial execution instead of
 *    deadlocking on or oversubscribing the pool.
 *  - Exceptions are captured per index and the lowest-index one is
 *    rethrown after the job completes, identically for every schedule;
 *    sibling indices still run.
 *
 * Async submission: submit() enqueues a job WITHOUT blocking and
 * returns a JobHandle future — the serving layer (TranspileService)
 * uses it to run whole transpile requests asynchronously while the
 * submitting thread keeps accepting work.  A submitted job has no
 * caller slot; its tasks run entirely on pool workers.  Do not call
 * JobHandle::wait() from inside a task — a worker blocking on another
 * job's completion can deadlock a saturated pool (the guard cannot
 * help: the waited-for work belongs to a different job).
 *
 * Borrowed places: a thread that would only block on the completion of
 * a one-task job can run that work itself instead, in the place of a
 * parked worker (CallerSlot), so the job never enters the queue and no
 * worker is woken.  A borrow succeeds only while a worker is parked, no
 * task is waiting to be claimed (the caller never jumps the queue), and
 * no other caller holds that worker's place.  While it is held, workers
 * claim only while running tasks + borrowed places < num_threads(), so
 * the pool never runs more than num_threads() tasks at once, and the
 * holder runs as a worker's task does: in_task() is true (a nested
 * parallel_for stays inline) and its deadline starts unbounded.
 * Releasing the place wakes one worker if a task became claimable
 * meanwhile.
 *
 * Fairness and priorities: workers re-scan the job list between tasks
 * (tasks here are routing passes and whole transpiles — milliseconds at
 * least — so the rescan is noise) and claim from the highest-priority
 * claimable job; among equal priorities the scan starts after the job
 * the worker last served, so a long-running job cannot starve a later
 * one of the same priority: the moment any worker finishes a task, the
 * next equal-priority job in rotation gets it.  Priorities affect only
 * the ORDER tasks are claimed in, never whether they run — every
 * submitted job still completes, so all determinism contracts hold.
 *
 * Cancellation: JobHandle::cancel() drops every task that no WORKER
 * has claimed yet (they are never invoked), while tasks already running
 * finish normally.  The serving layer uses this to abandon transpiles
 * whose client disconnected before a worker picked them up.
 *
 * Deadlines: DeadlineScope narrows the calling thread's budget (nested
 * scopes take the min), long tasks poll Scheduler::current_job_expired()
 * at natural boundaries (layout trials), and parallel_for propagates
 * the caller's budget onto its pool job, so a deadline set at the top
 * of a transpile reaches layout trials running on stolen workers.  A
 * deadline never preempts anything — expiry only makes the poll return
 * true, and what to do about it (degrade, throw) is the caller's
 * policy.
 */

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>

namespace nassc {

/** Multi-job worker pool with per-job queues and task stealing. */
class Scheduler
{
    struct Impl;

  public:
    /** fn(index, slot): see the file comment for the slot contract. */
    using TaskFn = std::function<void(std::size_t, int)>;

    /** Spawns `num_threads` workers; <= 0 picks hardware_concurrency(). */
    explicit Scheduler(int num_threads = 0);

    /**
     * Blocks until every submitted job has completed, then joins the
     * workers.  Clients must not submit after destruction begins.
     */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Pool threads (excluding the caller slot of parallel_for). */
    int num_threads() const;

    /**
     * Grow the pool (never shrink) so a parallel_for can hand out up to
     * max_workers slots including the caller's; returns the resulting
     * pool size.  Exists because hardware_concurrency() under-reports
     * in cgroup-limited containers, so an explicit --threads N request
     * must be able to out-size the default.  Bounded (256 threads) and
     * a no-op from inside a task.
     */
    int ensure_workers(int max_workers);

    /** Completion future of a submitted job. */
    class JobHandle
    {
      public:
        JobHandle() = default;

        /** True when bound to a job (submit() always returns bound). */
        bool valid() const { return job_ != nullptr; }

        /** Non-blocking completion poll; an unbound handle is done. */
        bool done() const;

        /**
         * Block until the job completes, then rethrow its lowest-index
         * captured exception, if any.  Never call from inside a task.
         */
        void wait() const;

        /**
         * Cooperatively cancel the job: every task no worker has claimed
         * yet is dropped (its fn is never invoked) and the job completes
         * as soon as the already-running tasks finish.  Returns how many
         * tasks were dropped — 0 means every task had already been
         * claimed (for a single-task job: it is running or done).
         * Dropped indices count as completed without error.  Must not
         * be called after the owning Scheduler is destroyed (its drain
         * guarantees all handles are done by then).
         */
        std::size_t cancel() const;

      private:
        friend class Scheduler;
        struct Job;
        explicit JobHandle(std::shared_ptr<Job> job) : job_(std::move(job)) {}
        std::shared_ptr<Job> job_;
    };

    /**
     * Enqueue fn(index, slot) for index in [0, count) and return at
     * once; tasks run on pool workers (up to max_slots concurrently,
     * <= 0 meaning "whole pool"), interleaved with every other active
     * job.  Unlike parallel_for there is no caller slot: slots are
     * 0..max_slots-1 and the submitting thread does not execute tasks.
     * Safe to call from inside a task (enqueueing never blocks); only
     * wait() is restricted.  Higher `priority` jobs are claimed before
     * lower ones whenever both have runnable tasks (parallel_for jobs
     * run at priority 0); ordering within a priority stays round-robin.
     * Tasks start unbounded: a task that wants a budget installs its
     * own DeadlineScope.
     */
    JobHandle submit(std::size_t count, TaskFn fn, int max_slots = 0,
                     int priority = 0);

    /**
     * Run fn(index, slot) for index in [0, count), blocking until all
     * indices finished; the caller participates as slot 0 of this job
     * (and only this job) while pool workers steal the rest.
     * max_workers <= 0 means "whole pool + caller".  Runs inline when
     * called from inside a task, when max_workers == 1, or when count
     * <= 1.  Rethrows the lowest-index captured exception.  Concurrent
     * top-level callers interleave — no whole-job serialization.
     */
    void parallel_for(std::size_t count, const TaskFn &fn,
                      int max_workers = 0);

    /**
     * RAII borrow of a parked worker's place for the calling thread
     * (see "Borrowed places" in the file comment).  The constructor
     * never blocks: held() says whether the borrow succeeded, and a
     * failed borrow changes nothing.  Never held from inside a task,
     * whose thread already occupies a place.  Destroy it on the thread
     * that made it, before the Scheduler.
     */
    class CallerSlot
    {
      public:
        explicit CallerSlot(Scheduler &scheduler);
        ~CallerSlot();
        CallerSlot(const CallerSlot &) = delete;
        CallerSlot &operator=(const CallerSlot &) = delete;

        bool held() const { return impl_ != nullptr; }

      private:
        Impl *impl_ = nullptr; ///< null when the borrow failed
        std::chrono::steady_clock::time_point prev_deadline_;
    };

    /**
     * Process-wide scheduler (hardware-concurrency sized, lazily
     * created).  LayoutSearch and TranspileService both default to it,
     * which is what makes the nested-parallelism guard effective end to
     * end.
     */
    static Scheduler &shared();

    /** True on a thread currently executing a scheduler task. */
    static bool in_task();

    /**
     * The calling thread's effective deadline: the min of every
     * enclosing DeadlineScope and, on a pool worker running a
     * parallel_for task, the budget of that parallel_for's caller;
     * time_point::max() when unbounded.
     */
    static std::chrono::steady_clock::time_point current_job_deadline();

    /**
     * True when the calling thread's effective deadline has passed —
     * the cooperative-timeout poll for long tasks.  Always false when
     * unbounded.
     */
    static bool current_job_expired();

    /**
     * RAII budget for the calling thread: narrows the thread-local
     * deadline to min(enclosing, `deadline`) for the scope's lifetime.
     * Deadline-free code pays nothing — the thread-local stays at
     * max() and current_job_expired() short-circuits.  parallel_for
     * hands the narrowed budget to its pool job, so scoping a deadline
     * around a transpile bounds its stolen trials too.
     */
    class DeadlineScope
    {
      public:
        explicit DeadlineScope(std::chrono::steady_clock::time_point deadline);
        ~DeadlineScope();
        DeadlineScope(const DeadlineScope &) = delete;
        DeadlineScope &operator=(const DeadlineScope &) = delete;

      private:
        std::chrono::steady_clock::time_point prev_;
    };

  private:
    void worker_main();

    Impl *impl_;
};

} // namespace nassc

#endif // NASSC_SERVICE_SCHEDULER_H
