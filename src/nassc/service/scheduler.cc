#include "nassc/service/scheduler.h"

#include "nassc/obs/trace.h"
#include "nassc/service/failpoint.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace nassc {

namespace {

/** True on a thread executing scheduler tasks: every pool worker, and
 *  a caller while it holds a CallerSlot. */
thread_local bool t_in_task = false;

} // namespace

/** One submitted task; immutable once queued. */
struct Scheduler::JobHandle::Job
{
    std::function<void()> fn;
    int priority = 0; ///< higher is claimed first
    /** Submitter's request tracer (null unless the submitting thread
     *  was tracing); the worker installs it around fn so spans from a
     *  pool thread land on the right request. */
    obs::SharedTracer trace;
    Scheduler::Impl *impl = nullptr; ///< owning scheduler, for cancel()
};

struct Scheduler::Impl
{
    /** Hard ceiling for ensure_workers() growth. */
    static constexpr int kMaxThreads = 256;

    using Job = Scheduler::JobHandle::Job;

    std::mutex mu;                   ///< guards everything below
    std::condition_variable work_cv; ///< workers: new task or stop
    std::condition_variable idle_cv; ///< destructor: nothing left to run
    std::vector<std::shared_ptr<Job>> queue; ///< unclaimed, arrival order
    bool stop = false;
    int parked = 0;   ///< workers waiting on work_cv
    int running = 0;  ///< workers inside a task
    int borrowed = 0; ///< places held by CallerSlots

    /** threads.size() mirror, readable without spawn_mu. */
    std::atomic<int> pool_size{0};
    std::mutex spawn_mu; ///< serializes ensure_workers growth
    std::vector<std::thread> threads;

    /** Wake the destructor once nothing is queued or running.  Under
     *  mu. */
    void
    notify_if_idle()
    {
        if (queue.empty() && running == 0)
            idle_cv.notify_all();
    }
};

Scheduler::Scheduler(int num_threads) : impl_(new Impl)
{
    if (num_threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        num_threads = hw ? static_cast<int>(hw) : 1;
    }
    // At least one worker always: an empty pool would strand every
    // submitted task.
    num_threads = std::max(1, std::min(num_threads, Impl::kMaxThreads));
    for (int i = 0; i < num_threads; ++i)
        impl_->threads.emplace_back([this] { worker_main(); });
    impl_->pool_size.store(num_threads);
}

Scheduler::~Scheduler()
{
    Impl &im = *impl_;
    {
        // Drain: every queued task still runs (tasks are finite)
        // before the workers stop.
        std::unique_lock<std::mutex> lk(im.mu);
        im.idle_cv.wait(lk,
                        [&] { return im.queue.empty() && im.running == 0; });
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
    // A race started inside a task stays on its thread, so growth from
    // a task could only serve work that never fans out.
    if (max_workers <= 0 || in_task())
        return num_threads();
    int want = std::min(max_workers - 1, Impl::kMaxThreads);
    if (want <= num_threads())
        return num_threads();
    std::lock_guard<std::mutex> g(impl_->spawn_mu);
    // New threads are safe to join mid-flight: they simply start
    // claiming from the queue like any sibling.
    while (static_cast<int>(impl_->threads.size()) < want)
        impl_->threads.emplace_back([this] { worker_main(); });
    impl_->pool_size.store(static_cast<int>(impl_->threads.size()),
                           std::memory_order_release);
    return num_threads();
}

void
Scheduler::worker_main()
{
    Impl &im = *impl_;
    t_in_task = true; // a worker runs user code only inside a task

    std::unique_lock<std::mutex> lk(im.mu);
    for (;;) {
        // A borrowed place counts as a running task: with every place
        // taken this worker claims nothing and parks until one frees.
        if (im.queue.empty() ||
            im.running + im.borrowed >=
                im.pool_size.load(std::memory_order_relaxed)) {
            if (im.stop)
                return;
            ++im.parked;
            im.work_cv.wait(lk);
            --im.parked;
            continue;
        }
        // max_element returns the FIRST maximum: the earliest submitted
        // task of the highest priority.
        auto it = std::max_element(
            im.queue.begin(), im.queue.end(),
            [](const auto &a, const auto &b) {
                return a->priority < b->priority;
            });
        const std::shared_ptr<Impl::Job> job = std::move(*it);
        im.queue.erase(it);
        ++im.running;
        lk.unlock();
        {
            // Bind the task's tracer (usually null — swapping empty
            // shared_ptrs, no atomics) so span sites inside it
            // attribute to the owning request.
            obs::TraceScope trace_scope(job->trace);
            // A claimed task always runs: the site may stall the claim,
            // and a throw armed there is counted and dropped.
            try {
                failpoint::hit("scheduler.claim");
            } catch (...) {
            }
            try {
                job->fn();
            } catch (...) {
            }
        }
        lk.lock();
        --im.running;
        im.notify_if_idle();
    }
}

Scheduler::JobHandle
Scheduler::submit(std::function<void()> fn, int priority)
{
    Impl &im = *impl_;
    auto job = std::make_shared<Impl::Job>(Impl::Job{
        std::move(fn), priority, obs::current_tracer(), impl_});
    {
        std::lock_guard<std::mutex> lk(im.mu);
        im.queue.push_back(job);
    }
    im.work_cv.notify_all();
    return JobHandle(std::move(job));
}

Scheduler::CallerSlot::CallerSlot(Scheduler &scheduler)
{
    if (t_in_task)
        return;
    Impl &im = *scheduler.impl_;
    {
        std::lock_guard<std::mutex> lk(im.mu);
        // A parked worker beside a queued task is about to claim it;
        // borrowing then would let the caller jump the queue.
        if (im.parked <= im.borrowed || !im.queue.empty())
            return;
        ++im.borrowed;
    }
    impl_ = &im;
    // The holder runs as a worker does for the borrow's lifetime.
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
        wake = impl_->parked > 0 && !impl_->queue.empty();
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
    // to touch.  A claimed task has left the queue.
    Impl &im = *job_->impl;
    std::lock_guard<std::mutex> lk(im.mu);
    auto it = std::find(im.queue.begin(), im.queue.end(), job_);
    if (it == im.queue.end())
        return false;
    im.queue.erase(it);
    im.notify_if_idle();
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
