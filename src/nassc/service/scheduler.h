#ifndef NASSC_SERVICE_SCHEDULER_H
#define NASSC_SERVICE_SCHEDULER_H

/**
 * @file
 * Work-stealing multi-job scheduler.
 *
 * A pool that runs ONE parallel_for at a time serializes top-level
 * submissions from distinct threads on a submit mutex, so a serving
 * process with concurrent independent batches degrades to lock-step.
 * Scheduler instead keeps PER-JOB task queues: every job (one
 * parallel_for, or one submitted task) owns its own index counter and
 * slot table, the shared workers scan
 * the active-job list round-robin and steal one task at a time from
 * whichever job has work and a free slot, and distinct submitters
 * therefore interleave on the same workers instead of queueing behind
 * each other.
 *
 * parallel_for guarantees:
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
 *  - parallel_for captures exceptions per index and rethrows the
 *    lowest-index one after the job completes, identically for every
 *    schedule; sibling indices still run.
 *
 * One-task submission: submit() enqueues one task WITHOUT blocking and
 * returns a JobHandle that can only cancel it — the serving layer
 * (TranspileService) runs each transpile request this way while the
 * submitting thread keeps accepting work.  A submitted task reports its
 * own outcome (the service settles a promise); a throw escaping it is
 * caught and dropped, so it never kills a worker.
 *
 * Borrowed places: a thread that would only block on the completion of
 * a submitted task can run that work itself instead, in the place of a
 * parked worker (CallerSlot), so the task never enters the queue and no
 * worker is woken.  A borrow succeeds only while a worker is parked, no
 * task is waiting to be claimed (the caller never jumps the queue), and
 * no other caller holds that worker's place.  While it is held, workers
 * claim only while running tasks + borrowed places < num_threads(), so
 * the pool never runs more than num_threads() tasks at once, and the
 * holder runs as a worker's task does: in_task() is true, so a nested
 * parallel_for stays inline.  Releasing the place wakes one worker if
 * a task became claimable meanwhile.
 *
 * Fairness and priorities: workers re-scan the job list between tasks
 * (tasks here are routing passes and whole transpiles — milliseconds at
 * least — so the rescan is noise) and claim from the highest-priority
 * claimable job; among equal priorities the scan starts after the job
 * the worker last served, so a long-running job cannot starve a later
 * one of the same priority: the moment any worker finishes a task, the
 * next equal-priority job in rotation gets it.  Priorities affect only
 * the ORDER tasks are claimed in, never whether they run — every
 * submitted task still runs unless cancelled, so all determinism
 * contracts hold.
 *
 * Cancellation: JobHandle::cancel() drops a submitted task that no
 * worker has claimed yet (it is never invoked); a task already running
 * finishes normally.  The serving layer uses this to abandon transpiles
 * whose client disconnected before a worker picked them up.
 *
 * Deadlines are not the scheduler's business: a request's budget
 * travels as an argument to the work that polls it
 * (LayoutSearch::run), so trials see it on whichever worker runs them.
 */

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
     * Blocks until every submitted task has run or been cancelled,
     * then joins the workers.  Clients must not submit after
     * destruction begins.
     */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Pool threads (excluding the caller slot of parallel_for). */
    int num_threads() const;

    /**
     * Grow the pool (never shrink) so a parallel_for can hand out up to
     * max_workers slots including the caller's; returns the resulting
     * pool size.  Only RoutingOptions::layout_threads still grows a pool
     * (hardware_concurrency() under-reports in cgroup-limited
     * containers); a service or sweep that wants N workers builds its
     * own Scheduler(N).  Bounded (256 threads) and a no-op from inside
     * a task.
     */
    int ensure_workers(int max_workers);

    /** Cancellation handle of a submitted task. */
    class JobHandle
    {
      public:
        JobHandle() = default;

        /** True when bound to a task (submit() always returns bound). */
        bool valid() const { return job_ != nullptr; }

        /**
         * Drop the task if no worker has claimed it yet: its fn is never
         * invoked, and true is returned.  False when it is running or
         * done, or the handle is unbound.  Must not be called after the
         * owning Scheduler is destroyed.
         */
        bool cancel() const;

      private:
        friend class Scheduler;
        struct Job;
        explicit JobHandle(std::shared_ptr<Job> job) : job_(std::move(job)) {}
        std::shared_ptr<Job> job_;
    };

    /**
     * Enqueue fn to run once on a pool worker and return at once; it
     * interleaves with every other active job.  Safe to call from
     * inside a task (enqueueing never blocks).  Higher `priority` tasks
     * are claimed before lower ones whenever both are runnable
     * (parallel_for jobs run at priority 0); ordering within a priority
     * stays round-robin.  fn reports its own outcome: an exception
     * escaping it is caught and dropped.
     */
    JobHandle submit(std::function<void()> fn, int priority = 0);

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
    };

    /**
     * Process-wide scheduler (hardware-concurrency sized, lazily
     * created).  LayoutSearch always runs on it and TranspileService
     * defaults to it; the nested-parallelism guard holds across
     * schedulers, since in_task() is per thread.
     */
    static Scheduler &shared();

    /** True on a thread currently executing a scheduler task. */
    static bool in_task();

  private:
    void worker_main();

    Impl *impl_;
};

} // namespace nassc

#endif // NASSC_SERVICE_SCHEDULER_H
