#include "nassc/service/scheduler.h"

#include "nassc/obs/trace.h"
#include "nassc/service/failpoint.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace nassc {

namespace {

/** Set while the current thread executes scheduler tasks. */
thread_local bool t_in_task = false;

/** Marks the thread in-task for the scope's lifetime. */
struct TaskScope
{
    bool prev = t_in_task;

    TaskScope() { t_in_task = true; }
    ~TaskScope() { t_in_task = prev; }
};

} // namespace

/**
 * One job's queue: an index counter plus a slot free-list, both guarded
 * by the scheduler-wide mutex (tasks are routing passes and whole
 * transpiles, so one light mutex around claim bookkeeping is noise —
 * and it keeps the lock order trivially ThreadSanitizer-clean).
 * Completion is signalled through the job's OWN mutex/cv, which a
 * parallel_for caller waits on for its stragglers.
 */
struct Scheduler::JobHandle::Job
{
    Scheduler::TaskFn fn;
    std::size_t count = 0;
    int priority = 0; ///< higher is claimed first; immutable after submit

    /** Owning scheduler's Impl, for cancel(). */
    Scheduler::Impl *impl = nullptr;

    // Claim state, guarded by Impl::mu.
    std::size_t next = 0;
    std::size_t finished = 0;
    std::vector<int> free_slots; ///< pool-claimable slot ids, stack order
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;

    /** Submitter's request tracer (null unless the submitting thread
     *  was tracing); workers install it around this job's tasks so
     *  spans from stolen work land on the right request.  Immutable
     *  after the job becomes visible to workers. */
    obs::SharedTracer trace;

    // Completion latch, guarded by done_mu (error is safe to read after
    // observing done: every error write under Impl::mu happens-before
    // the finishing thread's done store).
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;

    Job(Scheduler::TaskFn f, std::size_t n) : fn(std::move(f)), count(n) {}

    bool
    claimable() const
    {
        return next < count && !free_slots.empty();
    }
};

struct Scheduler::Impl
{
    /** Hard ceiling for ensure_workers() growth. */
    static constexpr int kMaxThreads = 256;

    using Job = Scheduler::JobHandle::Job;

    std::mutex mu;                 ///< active-job list + every job's claims
    std::condition_variable work_cv; ///< workers: new work or stop
    std::condition_variable idle_cv; ///< destructor: active list drained
    std::vector<std::shared_ptr<Job>> jobs; ///< active jobs, arrival order
    bool stop = false;
    int parked = 0;   ///< workers waiting on work_cv
    int running = 0;  ///< workers inside a task
    int borrowed = 0; ///< places held by CallerSlots

    /** threads.size() mirror, readable without spawn_mu. */
    std::atomic<int> pool_size{0};
    std::mutex spawn_mu; ///< serializes ensure_workers growth
    std::vector<std::thread> threads;

    /** Does any active job have a task a worker could claim?  Under
     *  mu. */
    bool
    any_claimable() const
    {
        return std::any_of(jobs.begin(), jobs.end(),
                           [](const auto &j) { return j->claimable(); });
    }

    /** Remove a completed job and trip its latch.  Called under mu. */
    void
    finish_job(const std::shared_ptr<Job> &job)
    {
        auto it = std::find(jobs.begin(), jobs.end(), job);
        if (it != jobs.end())
            jobs.erase(it);
        {
            std::lock_guard<std::mutex> g(job->done_mu);
            job->done = true;
        }
        job->done_cv.notify_all();
        if (jobs.empty())
            idle_cv.notify_all();
    }

    /** Record a task failure; lowest index wins.  Called under mu. */
    static void
    record_error(Job &job, std::size_t index, std::exception_ptr e)
    {
        if (index < job.error_index) {
            job.error_index = index;
            job.error = std::move(e);
        }
    }
};

Scheduler::Scheduler(int num_threads) : impl_(new Impl)
{
    if (num_threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        num_threads = hw ? static_cast<int>(hw) : 1;
    }
    // At least one worker always: submit()ted jobs have no caller slot,
    // so an empty pool would strand them forever.
    num_threads = std::max(1, std::min(num_threads, Impl::kMaxThreads));
    for (int i = 0; i < num_threads; ++i)
        impl_->threads.emplace_back([this] { worker_main(); });
    impl_->pool_size.store(num_threads);
}

Scheduler::~Scheduler()
{
    Impl &im = *impl_;
    {
        // Drain: every enqueued job still completes (tasks are finite)
        // before the workers stop.
        std::unique_lock<std::mutex> lk(im.mu);
        im.idle_cv.wait(lk, [&] { return im.jobs.empty(); });
        im.stop = true;
    }
    im.work_cv.notify_all();
    for (std::thread &t : im.threads)
        t.join();
    delete impl_;
}

int
Scheduler::num_threads() const
{
    return impl_->pool_size.load(std::memory_order_acquire);
}

int
Scheduler::ensure_workers(int max_workers)
{
    // Nested callers run their loops inline anyway, and growth from a
    // task could only serve work the guard will never fan out.
    if (max_workers <= 0 || in_task())
        return num_threads();
    int want = std::min(max_workers - 1, Impl::kMaxThreads);
    if (want <= num_threads())
        return num_threads();
    std::lock_guard<std::mutex> g(impl_->spawn_mu);
    // New threads are safe to join mid-flight: they simply start
    // scanning the active-job list like any sibling.
    while (static_cast<int>(impl_->threads.size()) < want)
        impl_->threads.emplace_back([this] { worker_main(); });
    impl_->pool_size.store(static_cast<int>(impl_->threads.size()),
                           std::memory_order_release);
    return num_threads();
}

void
Scheduler::worker_main()
{
    using Job = Impl::Job;
    Impl &im = *impl_;
    std::size_t rotor = 0; ///< round-robin scan start (local per thread)

    std::unique_lock<std::mutex> lk(im.mu);
    for (;;) {
        // Steal ONE task from the highest-priority claimable job, then
        // re-scan: between-task rotation (the tie-break within a
        // priority) is what interleaves a late-arriving job with an
        // in-flight one on the same workers.
        std::shared_ptr<Job> job;
        std::size_t index = 0;
        int slot = -1;
        const std::size_t n = im.jobs.size();
        std::size_t best_at = 0;
        // A borrowed place counts as a running task: with every place
        // taken this worker claims nothing and parks until one frees.
        const bool place_free =
            im.running + im.borrowed <
            im.pool_size.load(std::memory_order_relaxed);
        for (std::size_t k = 0; place_free && k < n; ++k) {
            const std::size_t at = (rotor + k) % n;
            Job &j = *im.jobs[at];
            if (j.claimable() && (!job || j.priority > job->priority)) {
                job = im.jobs[at];
                best_at = at;
            }
        }
        if (job) {
            index = job->next++;
            slot = job->free_slots.back();
            job->free_slots.pop_back();
            rotor = (best_at + 1) % n;
            ++im.running;
        } else {
            if (im.stop)
                return;
            ++im.parked;
            im.work_cv.wait(lk);
            --im.parked;
            rotor = 0;
            continue;
        }

        lk.unlock();
        std::exception_ptr err;
        {
            // Bind the job's tracer (usually null — swapping empty
            // shared_ptrs, no atomics) before entering the task, so
            // span sites inside it attribute to the owning request.
            obs::TraceScope trace_scope(job->trace);
            TaskScope scope;
            try {
                failpoint::hit("scheduler.claim");
                job->fn(index, slot);
            } catch (...) {
                err = std::current_exception();
            }
        }
        lk.lock();

        --im.running;
        job->free_slots.push_back(slot);
        if (err)
            Impl::record_error(*job, index, std::move(err));
        if (++job->finished == job->count)
            im.finish_job(job);
        else if (job->next < job->count)
            im.work_cv.notify_one(); // freed slot: a sibling can claim
    }
}

Scheduler::JobHandle
Scheduler::submit(std::function<void()> fn, int priority)
{
    using Job = Impl::Job;
    Impl &im = *impl_;
    auto job = std::make_shared<Job>(
        [fn = std::move(fn)](std::size_t, int) { fn(); }, 1);
    job->priority = priority;
    job->impl = impl_;
    job->trace = obs::current_tracer(); // one relaxed load when off
    job->free_slots.push_back(0);
    {
        std::lock_guard<std::mutex> lk(im.mu);
        im.jobs.push_back(job);
    }
    im.work_cv.notify_all();
    return JobHandle(job);
}

void
Scheduler::parallel_for(std::size_t count, const TaskFn &fn, int max_workers)
{
    using Job = Impl::Job;
    if (count == 0)
        return;
    Impl &im = *impl_;
    if (max_workers <= 0)
        max_workers = num_threads() + 1;

    // Inline paths: nested call from inside a task (the guard), a
    // serial request, or a single index.  Identical semantics to the
    // parallel path: every index runs, lowest-index exception rethrows.
    if (in_task() || max_workers == 1 || count <= 1) {
        TaskScope scope;
        std::size_t error_index = std::numeric_limits<std::size_t>::max();
        std::exception_ptr error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i, 0);
            } catch (...) {
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    auto job = std::make_shared<Job>(fn, count);
    job->impl = impl_;
    // Hand the caller's tracer to the stolen tasks: layout trials on
    // pool workers report spans onto the request being traced.
    job->trace = obs::current_tracer();
    int slots = max_workers;
    if (static_cast<std::size_t>(slots) > count)
        slots = static_cast<int>(count);
    // Slot 0 is reserved for this caller; pool workers claim 1..slots-1.
    for (int s = slots - 1; s >= 1; --s)
        job->free_slots.push_back(s);
    {
        std::lock_guard<std::mutex> lk(im.mu);
        im.jobs.push_back(job);
    }
    im.work_cv.notify_all();

    // The caller drains its OWN job only — it must not wander into a
    // foreign job's long task while its stragglers finish.
    bool finished_last = false;
    {
        TaskScope scope;
        for (;;) {
            std::size_t i;
            {
                std::lock_guard<std::mutex> lk(im.mu);
                if (job->next >= job->count)
                    break;
                i = job->next++;
            }
            std::exception_ptr err;
            try {
                fn(i, 0);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(im.mu);
            if (err)
                Impl::record_error(*job, i, std::move(err));
            if (++job->finished == job->count) {
                im.finish_job(job);
                finished_last = true;
                break;
            }
        }
    }

    if (!finished_last) {
        std::unique_lock<std::mutex> dlk(job->done_mu);
        job->done_cv.wait(dlk, [&] { return job->done; });
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

Scheduler::CallerSlot::CallerSlot(Scheduler &scheduler)
{
    if (t_in_task)
        return;
    Impl &im = *scheduler.impl_;
    {
        std::lock_guard<std::mutex> lk(im.mu);
        // A parked worker beside a claimable task is about to claim
        // it; borrowing then would let the caller jump the queue.
        if (im.parked <= im.borrowed || im.any_claimable())
            return;
        ++im.borrowed;
    }
    impl_ = &im;
    // The worker path's TaskScope, held for the borrow's lifetime.
    t_in_task = true;
}

Scheduler::CallerSlot::~CallerSlot()
{
    if (!impl_)
        return;
    t_in_task = false;
    bool wake;
    {
        std::lock_guard<std::mutex> lk(impl_->mu);
        --impl_->borrowed;
        // A task submitted while the place was out may have found
        // every worker's place taken and left them parked.
        wake = impl_->parked > 0 && impl_->any_claimable();
    }
    if (wake)
        impl_->work_cv.notify_one();
}

bool
Scheduler::JobHandle::cancel() const
{
    if (!job_)
        return false;
    // The owning scheduler is alive (see the header), so Impl is safe
    // to touch.  A claimed task has next == count.
    Impl &im = *job_->impl;
    std::lock_guard<std::mutex> lk(im.mu);
    if (job_->next == job_->count)
        return false;
    job_->next = job_->finished = job_->count;
    im.finish_job(job_);
    return true;
}

Scheduler &
Scheduler::shared()
{
    static Scheduler scheduler(0);
    return scheduler;
}

bool
Scheduler::in_task()
{
    return t_in_task;
}

} // namespace nassc
