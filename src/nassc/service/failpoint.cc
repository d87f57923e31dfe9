#include "nassc/service/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace nassc {
namespace failpoint {

namespace detail {

std::atomic<int> g_armed_count{0};

namespace {

/** One armed site: the action plus its remaining fire budget. */
struct Entry
{
    Hit::Kind kind = Hit::Kind::kNone;
    long param = 0;
    std::string message;
    long remaining = -1; ///< fires left; -1 = unlimited
};

struct Registry
{
    std::mutex mu;
    std::unordered_map<std::string, Entry> armed;
    /** Total fires per site; survives auto-disarm, reset by
     *  disarm_all() only. */
    std::unordered_map<std::string, std::uint64_t> counts;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** Parse "[count*]action[(param)]"; throws std::invalid_argument. */
Entry
parse_spec(const std::string &site, const std::string &spec)
{
    auto bad = [&](const std::string &why) -> Entry {
        throw std::invalid_argument("failpoint " + site + ": " + why +
                                    " in spec '" + spec + "'");
    };

    std::string body = spec;
    Entry entry;
    const std::size_t star = body.find('*');
    if (star != std::string::npos) {
        const std::string count = body.substr(0, star);
        if (count.empty() ||
            count.find_first_not_of("0123456789") != std::string::npos)
            return bad("bad fire count '" + count + "'");
        entry.remaining = std::atol(count.c_str());
        if (entry.remaining <= 0)
            return bad("fire count must be positive");
        body = body.substr(star + 1);
    }

    std::string arg;
    const std::size_t paren = body.find('(');
    if (paren != std::string::npos) {
        if (body.back() != ')')
            return bad("unterminated '('");
        arg = body.substr(paren + 1, body.size() - paren - 2);
        body = body.substr(0, paren);
    }

    if (body == "trigger") {
        entry.kind = Hit::Kind::kTrigger;
        if (!arg.empty())
            entry.param = std::atol(arg.c_str());
    } else if (body == "sleep") {
        entry.kind = Hit::Kind::kSleep;
        if (arg.empty() ||
            arg.find_first_not_of("0123456789") != std::string::npos)
            return bad("sleep wants a millisecond count");
        entry.param = std::atol(arg.c_str());
    } else if (body == "throw") {
        entry.kind = Hit::Kind::kThrow;
        entry.message = arg.empty() ? "injected fault" : arg;
    } else if (body == "off") {
        entry.kind = Hit::Kind::kNone;
    } else {
        return bad("unknown action '" + body + "'");
    }
    return entry;
}

} // namespace

Hit
eval_slow(const char *site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.armed.find(site);
    if (it == r.armed.end())
        return Hit{};
    Entry &entry = it->second;
    Hit hit;
    hit.kind = entry.kind;
    hit.param = entry.param;
    hit.message = entry.message;
    ++r.counts[site];
    if (entry.remaining > 0 && --entry.remaining == 0) {
        r.armed.erase(it);
        g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    return hit;
}

void
throw_hit(const char *site, const Hit &hit)
{
    throw std::runtime_error("failpoint " + std::string(site) + ": " +
                             hit.message);
}

void
sleep_hit(const Hit &hit)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(hit.param));
}

} // namespace detail

void
arm(const std::string &site, const std::string &spec)
{
    using detail::g_armed_count;
    detail::Entry entry = detail::parse_spec(site, spec);
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.armed.find(site);
    if (entry.kind == Hit::Kind::kNone) {
        if (it != r.armed.end()) {
            r.armed.erase(it);
            g_armed_count.fetch_sub(1, std::memory_order_relaxed);
        }
        return;
    }
    if (it == r.armed.end()) {
        r.armed.emplace(site, std::move(entry));
        g_armed_count.fetch_add(1, std::memory_order_relaxed);
    } else {
        it->second = std::move(entry);
    }
}

bool
disarm(const std::string &site)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.armed.erase(site) == 0)
        return false;
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

void
disarm_all()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lk(r.mu);
    detail::g_armed_count.fetch_sub(static_cast<int>(r.armed.size()),
                                    std::memory_order_relaxed);
    r.armed.clear();
    r.counts.clear();
}

std::uint64_t
hit_count(const std::string &site)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.counts.find(site);
    return it == r.counts.end() ? 0 : it->second;
}

int
arm_from_env(const char *env_var)
{
    const char *raw = std::getenv(env_var);
    if (!raw || !*raw)
        return 0;
    const std::string list = raw;
    int armed = 0;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t end = list.find(';', pos);
        if (end == std::string::npos)
            end = list.size();
        std::string item = list.substr(pos, end - pos);
        pos = end + 1;
        // Trim ASCII whitespace so multi-line shell quoting works.
        const std::size_t b = item.find_first_not_of(" \t\r\n");
        if (b == std::string::npos)
            continue;
        const std::size_t e = item.find_last_not_of(" \t\r\n");
        item = item.substr(b, e - b + 1);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(std::string(env_var) +
                                        ": expected site=spec, got '" +
                                        item + "'");
        arm(item.substr(0, eq), item.substr(eq + 1));
        ++armed;
    }
    return armed;
}

} // namespace failpoint
} // namespace nassc
