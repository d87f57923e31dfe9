#ifndef NASSC_SERVE_CLIENT_H
#define NASSC_SERVE_CLIENT_H

/**
 * @file
 * ServeClient: a blocking nasscd client over one connection — plus
 * RetryingServeClient, the production wrapper that reconnects and backs
 * off.
 *
 * ServeClient mirrors the protocol exactly (serve/protocol.h): each
 * call sends one frame and blocks for the one response frame.  A
 * connection serves any number of sequential requests; share one client
 * per thread, not one across threads.
 *
 * RetryingServeClient exists because transpiles are PURE: a request
 * that dies in transit (daemon restart, mid-frame disconnect, connect
 * refused during warm-up) or is shed (`status overloaded`) can always
 * be resent verbatim — at worst it becomes a cache hit.  The wrapper
 * retries transport errors with a fresh connection and bounded
 * exponential backoff + jitter, and honors the server's retry-after-ms
 * hint on overload.  Application errors (status "error" /
 * "deadline_exceeded") are NOT retried by default: they are
 * deterministic, so the same request would fail the same way.
 *
 * Hung-peer protection: set_io_timeout() (or RetryPolicy::io_timeout_ms)
 * bounds every send/recv with SO_SNDTIMEO/SO_RCVTIMEO, so a wedged
 * server surfaces as a typed TranspileTransportTimeout instead of
 * blocking the caller forever.  A timed-out connection is in an unknown
 * state (half a frame may be in flight); RetryingServeClient drops it
 * and retries on a fresh one — safe because transpiles are pure.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nassc/serve/protocol.h"

namespace nassc {

/** One connected nasscd session (movable, closes on destruction). */
class ServeClient
{
  public:
    /** @throws std::runtime_error when the connect fails. */
    static ServeClient connect_unix(const std::string &path);
    static ServeClient connect_tcp(const std::string &host, int port);

    ServeClient(ServeClient &&other) noexcept;
    ServeClient &operator=(ServeClient &&other) noexcept;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;
    ~ServeClient();

    /** Send one request frame, block for its response frame.
     *  @throws std::runtime_error on protocol/socket failure (an
     *  application-level failure comes back as status "error"). */
    ServeResponse request(const ServeRequest &request);

    /**
     * Transpile `qasm` on the named backend and return the full
     * response (routed QASM in .qasm, cache outcome in .source).
     * @throws std::runtime_error when the daemon answers status
     * "error" (message included) — transport and application failures
     * both surface as exceptions here.
     */
    ServeResponse
    transpile_qasm(const std::string &qasm, const std::string &backend,
                   const std::vector<std::pair<std::string, std::string>>
                       &options = {});

    /** The counter/gauge rows of the daemon's `metrics` scrape as a
     *  name->value map (obs::stats_from_metrics): ServiceStats and
     *  distance-cache rows.  Samples that are not decimal integers are
     *  skipped, not fatal. */
    std::map<std::string, std::uint64_t> stats();

    /** Fetch the daemon's metrics as Prometheus text exposition. */
    std::string metrics();

    /** Round-trip a ping frame. */
    bool ping();

    /**
     * Bound every subsequent send/recv on this connection to `ms`
     * milliseconds (SO_SNDTIMEO/SO_RCVTIMEO); 0 restores blocking
     * forever.  An expired timeout surfaces as
     * TranspileTransportTimeout from request().
     * @throws std::runtime_error when setsockopt fails.
     */
    void set_io_timeout(int ms);

    int fd() const { return fd_; }

  private:
    explicit ServeClient(int fd) : fd_(fd) {}
    int fd_ = -1;
};

/** Where a daemon listens; connect() prefers the unix path when both
 *  transports are configured. */
struct ServeEndpoint
{
    std::string unix_path;           ///< empty = use TCP
    std::string host = "127.0.0.1";
    int tcp_port = -1;

    /** @throws std::runtime_error when the connect fails. */
    ServeClient connect() const;
};

/** Backoff/retry knobs for RetryingServeClient. */
struct RetryPolicy
{
    /** Total tries per request (first attempt included). */
    int max_attempts = 6;
    /** Backoff before retry k is min(cap, base << k), halved-then-
     *  jittered (full jitter on the upper half). */
    int base_backoff_ms = 10;
    int max_backoff_ms = 2000;
    /** Deterministic jitter stream seed (tests; vary per thread). */
    unsigned jitter_seed = 1;
    /**
     * Also retry `status error` responses.  Off by default — they are
     * deterministic — but useful against a daemon with fault injection
     * armed (NASSC_FAILPOINTS), where an injected worker fault surfaces
     * as status error yet the retry is expected to succeed.
     */
    bool retry_application_errors = false;
    /**
     * Per-send/recv socket timeout applied to every dialed connection
     * (ServeClient::set_io_timeout); 0 = block forever (default, the
     * pre-existing behaviour).  A timeout counts as a transport error:
     * the connection is dropped and the request retried fresh.
     */
    int io_timeout_ms = 0;
};

/** What a RetryingServeClient spent so far (monotonic). */
struct RetryStats
{
    std::uint64_t attempts = 0;   ///< frames actually sent (incl. firsts)
    std::uint64_t retries = 0;    ///< attempts beyond each first
    std::uint64_t reconnects = 0; ///< fresh connections dialed
    std::uint64_t overloaded = 0; ///< overloaded responses absorbed
    std::uint64_t backoff_ms = 0; ///< total time slept backing off
};

/**
 * A ServeClient that survives daemon warm-up, restarts, dropped
 * connections, and load shedding.  Dials lazily, reconnects on any
 * transport error, and backs off between attempts (honoring the
 * server's retry-after-ms hint when one was sent).  Single-threaded
 * like ServeClient: one instance per thread.
 */
class RetryingServeClient
{
  public:
    RetryingServeClient(ServeEndpoint endpoint, RetryPolicy policy = {})
        : endpoint_(std::move(endpoint)), policy_(policy)
    {
    }

    /**
     * Send one request, retrying per the policy.  Returns the first
     * response that is not retryable (any status; inspect it).
     * @throws std::runtime_error when attempts are exhausted (last
     * transport error included).
     */
    ServeResponse request(const ServeRequest &request);

    /** request() + throw unless status is "ok" (like
     *  ServeClient::transpile_qasm, but retrying). */
    ServeResponse
    transpile_qasm(const std::string &qasm, const std::string &backend,
                   const std::vector<std::pair<std::string, std::string>>
                       &options = {});

    /** Retrying stats view (see ServeClient::stats). */
    std::map<std::string, std::uint64_t> stats();

    /** Retrying metrics scrape (see ServeClient::metrics). */
    std::string metrics();

    /** Retrying ping; false only after exhausting attempts. */
    bool ping();

    const RetryStats &retry_stats() const { return retry_stats_; }

  private:
    /** The live connection, dialing if needed. */
    ServeClient &session();
    void drop_session();
    /** Sleep before retry `attempt` (0-based), honoring `hint_ms`;
     *  returns the milliseconds slept. */
    int backoff(int attempt, int hint_ms);

    ServeEndpoint endpoint_;
    RetryPolicy policy_;
    std::optional<ServeClient> client_;
    RetryStats retry_stats_;
};

} // namespace nassc

#endif // NASSC_SERVE_CLIENT_H
