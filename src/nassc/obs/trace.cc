#include "nassc/obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <unistd.h>

namespace nassc {
namespace obs {

namespace detail {

std::atomic<int> g_live_tracers{0};

SharedTracer &
tls_slot()
{
    thread_local SharedTracer slot;
    return slot;
}

} // namespace detail

Tracer::Tracer(std::string id) : id_(std::move(id))
{
    detail::g_live_tracers.fetch_add(1, std::memory_order_relaxed);
}

Tracer::~Tracer()
{
    detail::g_live_tracers.fetch_sub(1, std::memory_order_relaxed);
}

void
Tracer::record(const char *name, std::uint64_t us) noexcept
{
    try {
        std::lock_guard<std::mutex> lock(mu_);
        if (spans_.size() >= 4096)
            return; // bounded: a pathological trial count can't OOM us
        spans_.emplace_back(name, us);
    } catch (...) {
        // A lost span must never fail the request it describes.
    }
}

std::vector<std::pair<std::string, std::uint64_t>>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
mint_trace_id()
{
    // Sequence within the process, salted by pid and a boot-time clock
    // sample so ids from different daemon processes never collide,
    // then mixed through a murmur3-style avalanche.
    static std::atomic<std::uint64_t> seq{0};
    static const std::uint64_t salt = [] {
        std::uint64_t s = static_cast<std::uint64_t>(::getpid());
        s = s * 0x9e3779b97f4a7c15ull +
            static_cast<std::uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count());
        return s;
    }();
    std::uint64_t h = salt + seq.fetch_add(1, std::memory_order_relaxed) *
                                 0x100000001b3ull;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return std::string(buf);
}

} // namespace obs
} // namespace nassc
