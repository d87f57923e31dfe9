#ifndef NASSC_OBS_EVENT_LOG_H
#define NASSC_OBS_EVENT_LOG_H

/**
 * @file
 * Bounded structured event log: the "what just went wrong" channel.
 *
 * Components append one JSON line per notable event — slow requests
 * over the threshold, shed/deadline rejections — into a fixed-capacity
 * ring (drop-oldest, with a dropped counter so truncation is visible).
 * nasscd drains the ring on every tick of its main loop and flushes
 * the lines to `--event-log PATH` (or stderr), so an incident leaves
 * evidence even when nobody was scraping metrics.
 *
 * Appending takes a mutex but happens only on already-slow or
 * already-failing paths; the request hot path never touches it.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nassc {
namespace obs {

class EventLog
{
  public:
    EventLog() = default;
    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /** The process-wide log every component appends to. */
    static EventLog &global();

    /** Append one JSONL line (no trailing newline).  Oldest entries
     *  are dropped past capacity; never throws through. */
    void append(std::string line) noexcept;

    /** Remove and return every buffered line, oldest first. */
    std::vector<std::string> drain();

    void set_capacity(std::size_t cap);

    std::uint64_t appended() const
    {
        return appended_.load(std::memory_order_relaxed);
    }
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Requests slower than this (server-side wall time) get a
     *  slow_request event.  0 disables.  Read with one relaxed load
     *  on the response path. */
    void set_slow_threshold_us(std::uint64_t us)
    {
        slow_threshold_us_.store(us, std::memory_order_relaxed);
    }
    std::uint64_t slow_threshold_us() const
    {
        return slow_threshold_us_.load(std::memory_order_relaxed);
    }

  private:
    std::mutex mu_;
    std::deque<std::string> ring_;
    std::size_t cap_ = 1024;
    std::atomic<std::uint64_t> appended_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> slow_threshold_us_{0};
};

/** Escape a string for embedding in a JSON double-quoted value. */
std::string json_escape(const std::string &s);

/**
 * Format one event line:
 *   {"ts_ms":<unix ms>,"kind":"<kind>","k":"v",...,"n":123,...}
 * String fields are escaped; numeric fields emitted bare.
 */
std::string
format_event(const char *kind,
             std::initializer_list<std::pair<const char *, std::string>>
                 str_fields,
             std::initializer_list<std::pair<const char *, std::uint64_t>>
                 num_fields);

} // namespace obs
} // namespace nassc

#endif // NASSC_OBS_EVENT_LOG_H
