#ifndef NASSC_SERVICE_ERRORS_H
#define NASSC_SERVICE_ERRORS_H

/**
 * @file
 * Typed service-layer errors.  Header-only so route/ can throw them
 * without a link-time dependency on service/.
 *
 * The first two map to dedicated wire statuses in serve/protocol.cc
 * (`deadline_exceeded`, `overloaded`) instead of the generic `error`,
 * because clients react differently: an overloaded shed is always
 * retryable (transpiles are pure), while a deadline miss means the
 * request's own budget was too small and retrying verbatim is futile.
 * TranspileTransportTimeout never crosses the wire — it is what a
 * CALLER's bounded socket I/O throws when the peer wedges, and it is
 * always retryable on a fresh connection.
 */

#include <stdexcept>
#include <string>

namespace nassc {

/**
 * A deadline'd transpile expired before ANY layout trial completed, so
 * there is no best-completed result to degrade to.  (With >= 1 trial
 * done the pipeline degrades instead — see TranspileResult::degraded.)
 * Propagates to every coalesced waiter of the request key.
 */
class TranspileDeadlineExceeded : public std::runtime_error
{
  public:
    TranspileDeadlineExceeded()
        : std::runtime_error(
              "transpile deadline exceeded before any result completed")
    {
    }
    explicit TranspileDeadlineExceeded(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Admission control shed this request: the service's queued-job cap
 * (ServiceOptions::max_queued) or the server's connection cap was
 * already reached.  Safe to retry after backing off.
 */
class TranspileOverloaded : public std::runtime_error
{
  public:
    TranspileOverloaded()
        : std::runtime_error("transpile service overloaded")
    {
    }
    explicit TranspileOverloaded(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * A socket send/recv exceeded its configured timeout
 * (ServeClient::set_io_timeout or RetryPolicy::io_timeout_ms): the peer
 * is wedged or the network stalled.  The connection is in an unknown
 * state — half a frame may be in flight — so the only safe recovery is
 * to drop it and retry on a FRESH connection, which is always sound
 * because transpiles are pure.
 * Distinct from TranspileDeadlineExceeded: that is the server telling a
 * client its compute budget expired; this is the caller's own watchdog
 * firing without any response at all.
 */
class TranspileTransportTimeout : public std::runtime_error
{
  public:
    TranspileTransportTimeout()
        : std::runtime_error("transport I/O timed out (peer wedged?)")
    {
    }
    explicit TranspileTransportTimeout(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

} // namespace nassc

#endif // NASSC_SERVICE_ERRORS_H
