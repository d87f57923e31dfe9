#include "nassc/obs/event_log.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace nassc {
namespace obs {

EventLog &
EventLog::global()
{
    static EventLog *log = new EventLog(); // leaked: outlives exiting threads
    return *log;
}

void
EventLog::append(std::string line) noexcept
{
    try {
        std::lock_guard<std::mutex> lock(mu_);
        while (ring_.size() >= cap_) {
            ring_.pop_front();
            dropped_.fetch_add(1, std::memory_order_relaxed);
        }
        ring_.push_back(std::move(line));
        appended_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
        // Losing an event line beats failing the path that logged it.
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::vector<std::string>
EventLog::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out(ring_.begin(), ring_.end());
    ring_.clear();
    return out;
}

void
EventLog::set_capacity(std::size_t cap)
{
    std::lock_guard<std::mutex> lock(mu_);
    cap_ = cap == 0 ? 1 : cap;
    while (ring_.size() > cap_) {
        ring_.pop_front();
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
format_event(
    const char *kind,
    std::initializer_list<std::pair<const char *, std::string>> str_fields,
    std::initializer_list<std::pair<const char *, std::uint64_t>> num_fields)
{
    const auto now_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    char buf[48];
    std::snprintf(buf, sizeof buf, "{\"ts_ms\":%" PRIu64 ",\"kind\":\"",
                  now_ms);
    std::string out = buf;
    out += json_escape(kind);
    out += '"';
    for (const auto &f : str_fields) {
        out += ",\"";
        out += f.first;
        out += "\":\"";
        out += json_escape(f.second);
        out += '"';
    }
    for (const auto &f : num_fields) {
        std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, f.first, f.second);
        out += buf;
    }
    out += '}';
    return out;
}

} // namespace obs
} // namespace nassc
