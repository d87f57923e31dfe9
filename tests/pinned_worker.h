#ifndef NASSC_TESTS_PINNED_WORKER_H
#define NASSC_TESTS_PINNED_WORKER_H

// Test helper: keep one worker of a Scheduler busy until released, so
// that work submitted behind it stays queued.

#include <atomic>
#include <memory>
#include <thread>

#include "nassc/service/scheduler.h"

namespace nassc {

/**
 * Submits one task that holds a worker of `sched` until release() or
 * destruction.  The task shares its flags with this object, so the pin
 * may go out of scope while the task is still finishing.
 */
class PinnedWorker
{
  public:
    explicit PinnedWorker(Scheduler &sched) : state_(std::make_shared<State>())
    {
        sched.submit([state = state_] {
            state->pinned = true;
            while (!state->released.load())
                std::this_thread::yield();
        });
    }
    ~PinnedWorker() { release(); }
    PinnedWorker(const PinnedWorker &) = delete;
    PinnedWorker &operator=(const PinnedWorker &) = delete;

    /** True once a worker runs the pinning task. */
    bool pinned() const { return state_->pinned.load(); }

    /** Let the worker go. */
    void release() { state_->released = true; }

  private:
    struct State
    {
        std::atomic<bool> pinned{false};
        std::atomic<bool> released{false};
    };
    std::shared_ptr<State> state_;
};

} // namespace nassc

#endif // NASSC_TESTS_PINNED_WORKER_H
