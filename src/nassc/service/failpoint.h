#ifndef NASSC_SERVICE_FAILPOINT_H
#define NASSC_SERVICE_FAILPOINT_H

/**
 * @file
 * Failpoints: deterministic fault injection for robustness testing.
 *
 * The drain / cancel / retry / shed / degraded paths of the serving
 * stack only trigger under faults — a worker that stalls, a transpile
 * that throws, a peer that disconnects mid-frame — which real hardware
 * produces rarely and never on cue.  A failpoint is a named site
 * compiled into the production code path PERMANENTLY whose behaviour a
 * test (or an operator, via the NASSC_FAILPOINTS environment variable)
 * can arm at runtime:
 *
 *     failpoint::hit("service.transpile");          // sleep/throw site
 *     if (failpoint::eval("service.cache_insert"))  // behaviour site
 *         return;                                    //   (kTrigger)
 *
 * Unarmed cost is ONE relaxed atomic load — no lock, no string hash —
 * so the sites stay in release builds and the tested binary is the
 * shipped binary.
 *
 * Arming uses a tiny spec grammar, via arm() or the env:
 *
 *     <spec>   := [<count>"*"]<action>["("<param>")"]
 *     <action> := trigger | sleep | throw | off
 *
 *  - `trigger`       make eval()/hit() report a hit; the site decides
 *                    what that means (skip an insert, clamp a read).
 *  - `sleep(MS)`     hit() blocks the calling thread for MS ms.
 *  - `throw`         hit() throws std::runtime_error; `throw(MSG)`
 *                    sets the message.
 *  - `off`           disarm (useful in env lists).
 *  - `N*action`      fire at most N times, then auto-disarm.
 *
 *     NASSC_FAILPOINTS='service.transpile=2*throw(worker fault);'\
 *     'protocol.write.disconnect=1*trigger' nasscd --unix /tmp/s.sock
 *
 * Sites in the tree: scheduler.claim (a sleep stalls the claim; a
 * throw is counted and dropped, and the claimed task still runs),
 * service.transpile, service.cache_insert, layout.trial,
 * protocol.read.short, protocol.read.eintr, protocol.write.short,
 * protocol.write.disconnect.
 *
 * Thread safety: arm/disarm/eval are safe from any thread (registry
 * mutex); fire counts survive auto-disarm so tests can assert them.
 */

#include <atomic>
#include <cstdint>
#include <string>

namespace nassc {
namespace failpoint {

/** What an armed failpoint tells its site to do. */
struct Hit
{
    enum class Kind {
        kNone,    ///< not armed (or count exhausted)
        kTrigger, ///< site-defined behaviour change
        kSleep,   ///< hit() slept param ms (eval() reports it only)
        kThrow,   ///< hit() throws (eval() reports it only)
    };
    Kind kind = Kind::kNone;
    long param = 0;      ///< sleep ms / trigger argument
    std::string message; ///< throw message
    explicit operator bool() const { return kind != Kind::kNone; }
};

namespace detail {
/** Count of armed sites; the unarmed fast path reads only this. */
extern std::atomic<int> g_armed_count;
Hit eval_slow(const char *site);
[[noreturn]] void throw_hit(const char *site, const Hit &hit);
void sleep_hit(const Hit &hit);
} // namespace detail

/**
 * Evaluate `site` against the registry: Kind::kNone when unarmed (one
 * relaxed atomic load), otherwise the armed action with its fire count
 * consumed.  Never sleeps or throws — behaviour sites that interpret
 * kTrigger themselves use this.
 */
inline Hit
eval(const char *site)
{
    if (detail::g_armed_count.load(std::memory_order_relaxed) == 0)
        return Hit{};
    return detail::eval_slow(site);
}

/**
 * eval() + centrally execute the action: kSleep blocks for param ms,
 * kThrow throws std::runtime_error("failpoint <site>: <message>");
 * kTrigger/kNone pass through for the site to interpret.
 */
inline Hit
hit(const char *site)
{
    Hit h = eval(site);
    if (h.kind == Hit::Kind::kSleep)
        detail::sleep_hit(h);
    else if (h.kind == Hit::Kind::kThrow)
        detail::throw_hit(site, h);
    return h;
}

/**
 * Arm `site` with `spec` (grammar in the file comment), replacing any
 * previous arming.  A spec of "off" disarms instead.
 * @throws std::invalid_argument on a malformed spec.
 */
void arm(const std::string &site, const std::string &spec);

/** Disarm one site; returns whether it was armed. */
bool disarm(const std::string &site);

/** Disarm every site and zero every fire count. */
void disarm_all();

/** Times `site` has fired since the last disarm_all() — fire counts
 *  survive count-exhaustion auto-disarm so tests can assert them. */
std::uint64_t hit_count(const std::string &site);

/**
 * Arm every "site=spec" entry of the ';'-separated list in `env_var`
 * (default NASSC_FAILPOINTS); returns how many sites were armed.
 * @throws std::invalid_argument on a malformed entry, so a typo'd
 * profile fails daemon startup loudly instead of testing nothing.
 */
int arm_from_env(const char *env_var = "NASSC_FAILPOINTS");

/** RAII arming for tests: arms on construction, disarms on scope
 *  exit (even when the site auto-disarmed by count in between). */
struct ScopedFailpoint
{
    ScopedFailpoint(std::string site, const std::string &spec)
        : site_(std::move(site))
    {
        arm(site_, spec);
    }
    ~ScopedFailpoint() { disarm(site_); }
    ScopedFailpoint(const ScopedFailpoint &) = delete;
    ScopedFailpoint &operator=(const ScopedFailpoint &) = delete;

  private:
    std::string site_;
};

} // namespace failpoint
} // namespace nassc

#endif // NASSC_SERVICE_FAILPOINT_H
