#ifndef NASSC_SERVICE_SCHEDULER_H
#define NASSC_SERVICE_SCHEDULER_H

/**
 * @file
 * Worker pool whose every job is one task.
 *
 * submit() enqueues one task WITHOUT blocking and returns a JobHandle
 * that can only cancel it.  The serving layer (TranspileService) runs
 * each transpile request this way while the submitting thread keeps
 * accepting work, and LayoutSearch fans a top-level layout race out as
 * helper tasks that drain its trial counter.  A submitted task reports
 * its own outcome (the service settles a promise, a race helper records
 * its trial's exception); a throw escaping it is caught and dropped, so
 * it never kills a worker.  Tasks submitted from distinct threads share
 * the workers: the queue holds every unclaimed task, whoever submitted
 * it.
 *
 * Claim order: a worker takes the highest-priority queued task, and
 * among equal priorities the earliest submitted.  Tasks here are
 * routing passes and whole transpiles — milliseconds at least — so one
 * scheduler-wide mutex around the queue is noise.  Priorities affect
 * only the ORDER tasks are claimed in, never whether they run: every
 * submitted task still runs unless cancelled, so all determinism
 * contracts hold.  A claimed task always runs; the scheduler.claim
 * failpoint can stall a claim, and a throw armed there is counted and
 * dropped.
 *
 * Borrowed places: a thread that would only block on the completion of
 * a submitted task can run that work itself instead, in the place of a
 * parked worker (CallerSlot), so the task never enters the queue and no
 * worker is woken.  A borrow succeeds only while a worker is parked, no
 * task is queued (the caller never jumps the queue), and no other
 * caller holds that worker's place.  While it is held, workers claim
 * only while running tasks + borrowed places < num_threads(), so the
 * pool never runs more than num_threads() tasks at once, and the holder
 * runs as a worker's task does: in_task() is true, so a layout race it
 * starts stays on its thread.  Releasing the place wakes one worker if
 * a task was queued meanwhile.
 *
 * Cancellation: JobHandle::cancel() removes a task that no worker has
 * claimed yet from the queue (it is never invoked); a task already
 * running finishes normally.  The serving layer uses this to abandon
 * transpiles whose client disconnected before a worker picked them up,
 * and a layout race to withdraw helpers it no longer needs.
 *
 * Deadlines are not the scheduler's business: a request's budget
 * travels as an argument to the work that polls it
 * (LayoutSearch::run), so trials see it on whichever worker runs them.
 */

#include <functional>
#include <memory>

namespace nassc {

/** Worker pool running one-task jobs in priority, then arrival, order. */
class Scheduler
{
    struct Impl;

  public:
    /** Spawns `num_threads` workers; <= 0 picks hardware_concurrency(). */
    explicit Scheduler(int num_threads = 0);

    /**
     * Blocks until the queue is empty and no task is running, then
     * joins the workers.  Clients must not submit after
     * destruction begins.
     */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Worker threads in the pool. */
    int num_threads() const;

    /**
     * Grow the pool (never shrink) to max_workers - 1 threads, so that
     * a caller that works beside them has max_workers threads in all;
     * returns the resulting pool size.  Only
     * RoutingOptions::layout_threads still grows a pool
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
     * Enqueue fn to run once on a pool worker and return at once.  Safe
     * to call from inside a task (enqueueing never blocks).  Higher
     * `priority` tasks are claimed first; equal priorities are claimed
     * in submission order.  fn reports its own outcome: an exception
     * escaping it is caught and dropped.
     */
    JobHandle submit(std::function<void()> fn, int priority = 0);

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
     * created).  A top-level layout race submits its helpers here and
     * TranspileService defaults to it; a race started inside a task of
     * any scheduler stays on its thread, since in_task() is per
     * thread.
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
