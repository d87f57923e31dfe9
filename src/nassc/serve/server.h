#ifndef NASSC_SERVE_SERVER_H
#define NASSC_SERVE_SERVER_H

/**
 * @file
 * NasscServer: the nasscd daemon's listening core.
 *
 * A deliberately thin network shell around TranspileService: the server
 * owns the sockets and the protocol framing (serve/protocol.h) and
 * NOTHING else — every transpile goes through call_qasm(), the
 * admission and pipeline an in-process submit_qasm() uses, so a
 * daemon response is bit-identical to a local transpile() with the
 * same inputs, and all hardening (dedup, coalescing, bounded cache,
 * generation/TTL invalidation, priorities) lives in the service where
 * it is unit testable without sockets.
 *
 * Threading model: one accept thread multiplexing the listeners with
 * poll(); one thread per accepted connection, each handling its frames
 * sequentially (pipelined requests are answered in order).  A miss
 * runs on its connection thread when a scheduler worker is parked, in
 * that worker's place (TranspileService::call_qasm): the thread would
 * only block on the ticket otherwise, and the request skips two thread
 * handoffs.  Otherwise the transpile runs as a Scheduler job at the
 * request's priority and the connection thread blocks on the ticket.
 * Either way a slow circuit never stalls the accept loop or other
 * connections.
 *
 * Disconnect handling: a connection thread waiting on a queued or
 * coalesced ticket blocks in slices of at most 1 ms
 * (TranspileTicket::wait_for), so it answers the moment the transpile
 * settles.  Between slices it probes its socket; if the client hung up
 * first, the server calls TranspileService::try_cancel() so a request
 * nobody will read never occupies a worker (only a still-queued job
 * can be dropped — a transpile already running, on a worker or on the
 * connection thread, finishes and populates the cache).  The response
 * body comes from TranspileTicket::get_qasm(), which encodes once per
 * cache entry.
 *
 * Shutdown (stop()) is graceful: listeners close first (new connects
 * are refused), then every open connection is shut down for READING —
 * requests already received keep draining and their responses are still
 * written — and the call joins all threads before returning.  The
 * destructor calls stop().
 *
 * Backends are served from a small registry keyed by name (montreal,
 * linear, grid by default); register_backend() adds or REPLACES an
 * entry, which is how calibration rotation reaches the daemon — the
 * service notices the new Backend::cache_key() on the next request and
 * eagerly drops the stale generation.
 */

#include <cstdint>
#include <memory>
#include <string>

#include "nassc/service/transpile_service.h"
#include "nassc/topo/backends.h"

namespace nassc {

/** Listener + service configuration for one server. */
struct ServerOptions
{
    /** Non-empty: listen on this AF_UNIX socket path (removed and
     *  re-bound on start, unlinked on stop). */
    std::string unix_path;
    /** >= 0: listen on TCP host:tcp_port (0 picks an ephemeral port,
     *  see NasscServer::tcp_port()).  -1 disables TCP.  At least one
     *  of unix_path / tcp_port must be enabled. */
    int tcp_port = -1;
    std::string host = "127.0.0.1";
    /** Options for the server-owned TranspileService (cache bounds,
     *  TTL, worker provisioning, max_queued admission cap). */
    ServiceOptions service;
    /**
     * Admission control: maximum concurrently open client connections.
     * A connect past the cap is answered immediately with one
     * `status overloaded` frame (carrying the retry-after-ms hint) and
     * closed — never queued, never left hanging.  0 = unbounded.
     */
    std::size_t max_connections = 0;
    /** Backoff hint sent with every `status overloaded` response
     *  (connection shed or queue shed), in milliseconds. */
    int retry_after_ms = 50;
    /**
     * Deadline applied to requests that do not set deadline_ms
     * themselves, in milliseconds (nasscd --default-deadline).
     * 0 = no default; a request's own deadline_ms always wins.
     */
    int default_deadline_ms = 0;
};

/** The nasscd daemon core: sockets + framing over a TranspileService. */
class NasscServer
{
  public:
    explicit NasscServer(ServerOptions options);

    /** stop()s if still running. */
    ~NasscServer();

    NasscServer(const NasscServer &) = delete;
    NasscServer &operator=(const NasscServer &) = delete;

    /** Bind + listen + launch the accept thread.
     *  @throws std::runtime_error on any socket failure. */
    void start();

    /** Graceful shutdown: refuse new connections, drain requests
     *  already received, join every thread.  Idempotent. */
    void stop();

    /** The bound TCP port (resolves 0 = ephemeral); -1 if disabled. */
    int tcp_port() const;

    /** The bound unix socket path; empty if disabled. */
    const std::string &unix_path() const;

    /** Add or replace (by Backend::name) a served backend. */
    void register_backend(std::shared_ptr<const Backend> backend);

    /** The service requests are routed through. */
    TranspileService &service();

    /** Frames decoded so far (any verb) — a liveness/progress counter
     *  for tests and monitoring. */
    std::uint64_t requests_seen() const;

    /** Connections shed by the max_connections cap so far. */
    std::uint64_t connections_shed() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace nassc

#endif // NASSC_SERVE_SERVER_H
