#include "nassc/serve/server.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "nassc/obs/event_log.h"
#include "nassc/obs/metrics.h"
#include "nassc/obs/trace.h"
#include "nassc/serve/protocol.h"

namespace nassc {

namespace {

[[noreturn]] void
sys_fail(const std::string &what)
{
    throw std::runtime_error("nasscd: " + what + ": " +
                             std::strerror(errno));
}

/** Thrown inside a connection thread when the peer is gone; unwinds to
 *  the connection loop, which closes without writing. */
struct ClientGone
{
};

const char *
source_name(TicketSource source)
{
    // An owner answers `transpiled` whichever thread ran its transpile.
    switch (source) {
    case TicketSource::kScheduled:
    case TicketSource::kInline:
        return "transpiled";
    case TicketSource::kCoalesced:
        return "coalesced";
    case TicketSource::kCacheHit:
        return "cache_hit";
    }
    return "unknown";
}

/** Append the service's stat rows to a `metrics` body: ServiceStats
 *  and its distance cache's Stats, read once under their own locks at
 *  scrape time.  These are the only copies of the counts — the
 *  registry holds none of them — so each event is rendered once. */
void
append_service_rows(std::string &out, const TranspileService &service)
{
    const ServiceStats s = service.stats();
    const DistanceCache::Stats d = service.distance_cache().stats();
    struct Row
    {
        const char *type;
        const char *name;
        const char *help;
        std::uint64_t value;
    };
    const Row rows[] = {
        {"counter", "requests", "Transpile requests admitted to submit()",
         s.requests},
        {"counter", "cache_hits", "Result-cache hits", s.cache_hits},
        {"counter", "text_hits",
         "Result-cache hits found by request text, without a parse",
         s.text_hits},
        {"counter", "coalesced", "Requests coalesced onto in-flight work",
         s.coalesced},
        {"counter", "misses", "Requests that owned a fresh transpile",
         s.misses},
        {"counter", "caller_runs",
         "Misses run on the requesting thread instead of a worker",
         s.caller_runs},
        {"counter", "evictions_capacity",
         "Result-cache entries evicted to fit capacity",
         s.evictions_capacity},
        {"counter", "evictions_invalidated",
         "Result-cache entries dropped by rotation or TTL",
         s.evictions_invalidated},
        {"counter", "cancelled", "Requests cancelled before a worker ran",
         s.cancelled},
        {"counter", "shed", "Requests shed by admission control", s.shed},
        {"counter", "deadline_exceeded",
         "Requests settled past their deadline", s.deadline_exceeded},
        {"counter", "transpiles_ok", "Transpiles completed", s.transpiles_ok},
        {"counter", "transpiles_failed", "Transpiles failed",
         s.transpiles_failed},
        {"counter", "synth_memo_hits",
         "Block, 1q-run and 1q-translate resyntheses answered by a "
         "pooled SynthMemo",
         s.synth_memo_hits},
        {"counter", "synth_memo_misses",
         "Block, 1q-run and 1q-translate resyntheses a pooled SynthMemo "
         "had to synthesize",
         s.synth_memo_misses},
        {"gauge", "synth_memos", "SynthMemos in the service's pool",
         s.synth_memos},
        {"gauge", "cache_size", "Result-cache entries resident", s.cache_size},
        {"gauge", "cache_bytes", "Result-cache bytes resident", s.cache_bytes},
        {"gauge", "inflight", "Keys being transpiled", s.inflight},
        // Distance-cache rows: provider-level compute/hit counts plus
        // the providers' per-row counters, so operators can see
        // lazy-row pressure (and rotation invalidations).
        {"gauge", "distance_entries", "Distance providers cached", d.entries},
        {"counter", "distance_computations", "Distance providers built",
         d.computations},
        {"counter", "distance_hits", "Distance provider cache hits", d.hits},
        {"counter", "distance_evictions_invalidated",
         "Distance providers dropped by calibration rotation",
         d.evictions_invalidated},
        {"counter", "distance_rows_computed", "Distance rows computed",
         d.rows_computed},
        {"counter", "distance_row_hits", "Distance row cache hits",
         d.row_hits},
        {"counter", "distance_rows_evicted", "Distance rows evicted",
         d.rows_evicted},
        {"gauge", "distance_row_bytes", "Distance row bytes resident",
         d.row_bytes},
        {"gauge", "distance_row_bytes_peak", "Distance row bytes high-water",
         d.row_bytes_peak},
    };
    for (const Row &row : rows)
        obs::render_row(out, row.type, row.name, row.help, row.value);
}

std::uint64_t
us_since(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

} // namespace

struct NasscServer::Impl
{
    explicit Impl(ServerOptions opts)
        : options(std::move(opts)),
          service(std::make_shared<TranspileService>(options.service))
    {
        for (auto &&b :
             {montreal_backend(), linear_backend(), grid_backend()})
            backends[b.name] = std::make_shared<const Backend>(std::move(b));
    }

    ServerOptions options;
    std::shared_ptr<TranspileService> service;

    mutable std::mutex backends_mu;
    std::unordered_map<std::string, std::shared_ptr<const Backend>> backends;

    int unix_fd = -1;
    int tcp_fd = -1;
    int bound_port = -1;
    int wake_pipe[2] = {-1, -1};
    std::atomic<bool> stopping{false};
    bool started = false;
    bool stopped = false;
    std::thread accept_thread;

    struct Conn
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };
    std::mutex conns_mu;
    std::vector<std::unique_ptr<Conn>> conns;

    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> conns_shed{0};

    std::shared_ptr<const Backend>
    lookup_backend(const std::string &name) const
    {
        std::lock_guard<std::mutex> lk(backends_mu);
        auto it = backends.find(name);
        if (it == backends.end())
            throw std::runtime_error("unknown backend '" + name + "'");
        return it->second;
    }

    int
    listen_unix()
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options.unix_path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("nasscd: unix socket path too long: " +
                                     options.unix_path);
        std::strncpy(addr.sun_path, options.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        // SOCK_CLOEXEC everywhere in serve/: a child the embedding
        // process forks must not inherit listeners or connections.
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            sys_fail("socket(AF_UNIX)");
        ::unlink(options.unix_path.c_str()); // stale path from a crash
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0) {
            ::close(fd);
            sys_fail("bind(" + options.unix_path + ")");
        }
        if (::listen(fd, 64) < 0) {
            ::close(fd);
            sys_fail("listen(" + options.unix_path + ")");
        }
        return fd;
    }

    int
    listen_tcp()
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            sys_fail("socket(AF_INET)");
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
        if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) !=
            1) {
            ::close(fd);
            throw std::runtime_error("nasscd: bad host '" + options.host +
                                     "'");
        }
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
            0) {
            ::close(fd);
            sys_fail("bind(" + options.host + ":" +
                     std::to_string(options.tcp_port) + ")");
        }
        if (::listen(fd, 64) < 0) {
            ::close(fd);
            sys_fail("listen(tcp)");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) <
            0) {
            ::close(fd);
            sys_fail("getsockname");
        }
        bound_port = ntohs(bound.sin_port);
        return fd;
    }

    /** Wait for `ticket` while watching the client socket; false = the
     *  peer hung up first (caller cancels).  The wait wakes the moment
     *  the ticket settles; between 1 ms slices it probes the socket.
     *  During shutdown the probe is skipped: stop() half-closes every
     *  socket to stop new frames, which is indistinguishable from a
     *  hangup — accepted requests must still drain to their response. */
    bool
    wait_ticket(const TranspileTicket &ticket, int fd) const
    {
        while (!ticket.wait_for(std::chrono::milliseconds(1))) {
            if (stopping.load(std::memory_order_relaxed))
                continue;
            char probe;
            const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
            if (n == 0)
                return false; // orderly hangup
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR)
                return false; // connection error
            // n == 1 is fine: a pipelined next request, not EOF.
        }
        return true;
    }

    /** Verb dispatch on a decoded request and its parsed options;
     *  throws typed service errors for handle_payload to map. */
    ServeResponse
    dispatch(const ServeRequest &request, RequestOptions opts, int fd)
    {
        ServeResponse response;
        if (request.verb == "ping") {
            response.status = "ok";
            return response;
        }
        if (request.verb == "metrics") {
            // Prometheus text exposition: the registry's histograms
            // plus this service's stat rows.
            response.status = "ok";
            response.metrics = obs::MetricsRegistry::global().render();
            append_service_rows(response.metrics, *service);
            return response;
        }
        const std::shared_ptr<const Backend> backend =
            lookup_backend(request.backend);
        if (opts.policy.deadline_ms == 0)
            opts.policy.deadline_ms = options.default_deadline_ms;
        // A miss runs right here when a worker is parked: this thread
        // would only block on the ticket otherwise.
        TranspileTicket ticket = service->call_qasm(
            request.qasm, backend, opts.transpile, opts.policy);
        const bool settled = ticket.source() == TicketSource::kCacheHit ||
                             ticket.source() == TicketSource::kInline;
        if (!settled && !wait_ticket(ticket, fd)) {
            // Nobody will read the answer; a request no worker has
            // started yet is dropped entirely.
            service->try_cancel(ticket);
            throw ClientGone{};
        }
        // Rethrows transpile errors (typed ones mapped by the caller).
        const SharedTranspileResult result = ticket.get();
        response.qasm = ticket.get_qasm();
        response.source = source_name(ticket.source());
        response.degraded = result->degraded;
        if (result->degraded)
            response.trials_consumed = result->layout_trials_consumed;
        response.status = "ok";
        return response;
    }

    ServeResponse
    handle_payload(const std::string &payload, int fd)
    {
        obs::StackMetrics &om = obs::StackMetrics::get();
        const auto start = std::chrono::steady_clock::now();
        ServeResponse response;
        obs::SharedTracer tracer;
        bool transpile_verb = false;
        try {
            const ServeRequest request = parse_request(payload);
            const std::uint64_t decode_us = us_since(start);
            om.decode_us.observe(decode_us);
            transpile_verb = request.verb == "transpile";
            // One parse of the option lines yields the transpile
            // options, the request's policy and its trace flag.
            RequestOptions opts;
            if (transpile_verb)
                opts = parse_request_options(request.options);
            if (opts.trace) {
                // The decode happened before the tracer could exist,
                // so note its already-measured span explicitly.
                tracer = std::make_shared<obs::Tracer>(obs::mint_trace_id());
                tracer->record("decode", decode_us);
            }
            // Install for the scope of the request: submit() runs the
            // admission span on this thread, and the scheduler carries
            // the tracer onto whichever workers execute the job.
            obs::TraceScope scope(tracer);
            response = dispatch(request, std::move(opts), fd);
        } catch (const ClientGone &) {
            throw;
        } catch (const TranspileOverloaded &e) {
            response = ServeResponse{};
            response.status = "overloaded";
            response.error = e.what();
            response.retry_after_ms = options.retry_after_ms;
        } catch (const TranspileDeadlineExceeded &e) {
            response = ServeResponse{};
            response.status = "deadline_exceeded";
            response.error = e.what();
        } catch (const std::exception &e) {
            response = ServeResponse{};
            response.status = "error";
            response.error = e.what();
        }

        if (tracer) {
            response.trace_id = tracer->id();
            response.spans = tracer->spans();
        }
        if (transpile_verb) {
            const std::uint64_t total_us = us_since(start);
            om.request_us.observe(total_us);
            obs::EventLog &events = obs::EventLog::global();
            const std::uint64_t slow = events.slow_threshold_us();
            if (slow != 0 && total_us >= slow) {
                om.slow_requests_total.inc();
                events.append(obs::format_event(
                    "slow_request",
                    {{"trace", tracer ? tracer->id() : ""},
                     {"status", response.status},
                     {"source", response.source}},
                    {{"us", total_us}}));
            }
        }
        return response;
    }

    void
    connection_main(Conn *conn)
    {
        try {
            std::string payload;
            while (read_frame(conn->fd, payload)) {
                frames.fetch_add(1, std::memory_order_relaxed);
                write_frame(conn->fd, encode_response(
                                          handle_payload(payload, conn->fd)));
            }
        } catch (...) {
            // ClientGone, protocol violations, or socket errors all end
            // the connection the same way; the daemon itself stays up.
        }
        int fd;
        {
            std::lock_guard<std::mutex> lk(conns_mu);
            fd = conn->fd;
            conn->fd = -1; // stop() must not shutdown() a closed fd
        }
        if (fd >= 0)
            ::close(fd);
        conn->done.store(true, std::memory_order_release);
    }

    /** Open (not yet finished) client connections.  Reaps first so a
     *  burst of short-lived clients frees its slots promptly. */
    std::size_t
    live_connections()
    {
        reap_finished();
        std::lock_guard<std::mutex> lk(conns_mu);
        std::size_t live = 0;
        for (const auto &conn : conns)
            if (!conn->done.load(std::memory_order_acquire))
                ++live;
        return live;
    }

    /** Answer an over-cap connect with one overloaded frame + close.
     *  Best effort: the peer may already be gone (EPIPE is fine). */
    void
    shed_connection(int fd)
    {
        conns_shed.fetch_add(1, std::memory_order_relaxed);
        ServeResponse response;
        response.status = "overloaded";
        response.error = "nasscd: connection limit reached";
        response.retry_after_ms = options.retry_after_ms;
        try {
            write_frame(fd, encode_response(response));
        } catch (...) {
        }
        ::close(fd);
    }

    void
    accept_main()
    {
        std::vector<pollfd> fds;
        if (unix_fd >= 0)
            fds.push_back({unix_fd, POLLIN, 0});
        if (tcp_fd >= 0)
            fds.push_back({tcp_fd, POLLIN, 0});
        fds.push_back({wake_pipe[0], POLLIN, 0});

        while (!stopping.load(std::memory_order_relaxed)) {
            const int rc = ::poll(fds.data(),
                                  static_cast<nfds_t>(fds.size()), -1);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            for (const pollfd &p : fds) {
                if (!(p.revents & POLLIN) || p.fd == wake_pipe[0])
                    continue;
                const int client =
                    ::accept4(p.fd, nullptr, nullptr, SOCK_CLOEXEC);
                if (client < 0)
                    continue;
                if (options.max_connections != 0 &&
                    live_connections() >= options.max_connections) {
                    shed_connection(client);
                    continue;
                }
                auto conn = std::make_unique<Conn>();
                conn->fd = client;
                Conn *raw = conn.get();
                std::lock_guard<std::mutex> lk(conns_mu);
                conns.push_back(std::move(conn));
                raw->thread =
                    std::thread([this, raw] { connection_main(raw); });
            }
            reap_finished();
        }
    }

    /** Join connection threads that already exited (keeps a long-lived
     *  daemon from accumulating one dead thread per past client). */
    void
    reap_finished()
    {
        std::vector<std::thread> finished;
        {
            std::lock_guard<std::mutex> lk(conns_mu);
            for (auto it = conns.begin(); it != conns.end();) {
                if ((*it)->done.load(std::memory_order_acquire)) {
                    finished.push_back(std::move((*it)->thread));
                    it = conns.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (std::thread &t : finished)
            if (t.joinable())
                t.join();
    }
};

NasscServer::NasscServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options)))
{
}

NasscServer::~NasscServer()
{
    stop();
}

void
NasscServer::start()
{
    Impl &im = *impl_;
    if (im.started)
        throw std::logic_error("nasscd: start() called twice");
    if (im.options.unix_path.empty() && im.options.tcp_port < 0)
        throw std::runtime_error("nasscd: no listener configured");
    if (::pipe2(im.wake_pipe, O_CLOEXEC) < 0)
        sys_fail("pipe");
    if (!im.options.unix_path.empty())
        im.unix_fd = im.listen_unix();
    if (im.options.tcp_port >= 0)
        im.tcp_fd = im.listen_tcp();
    im.started = true;
    im.accept_thread = std::thread([&im] { im.accept_main(); });
}

void
NasscServer::stop()
{
    Impl &im = *impl_;
    if (!im.started || im.stopped)
        return;
    im.stopped = true;
    im.stopping.store(true, std::memory_order_relaxed);
    // Wake the accept loop, then retire the listeners: connects made
    // from here on are refused.
    (void)!::write(im.wake_pipe[1], "x", 1);
    if (im.accept_thread.joinable())
        im.accept_thread.join();
    if (im.unix_fd >= 0)
        ::close(im.unix_fd);
    if (im.tcp_fd >= 0)
        ::close(im.tcp_fd);
    if (!im.options.unix_path.empty())
        ::unlink(im.options.unix_path.c_str());
    ::close(im.wake_pipe[0]);
    ::close(im.wake_pipe[1]);

    // Half-close every connection: no new frames arrive, but requests
    // already decoded still drain to a written response.
    {
        std::lock_guard<std::mutex> lk(im.conns_mu);
        for (auto &conn : im.conns)
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RD);
    }
    // Take ownership of the Conn objects BEFORE joining: they must
    // outlive their threads (connection_main touches them to the end).
    std::vector<std::unique_ptr<Impl::Conn>> taken;
    {
        std::lock_guard<std::mutex> lk(im.conns_mu);
        taken = std::move(im.conns);
        im.conns.clear();
    }
    for (auto &conn : taken)
        if (conn->thread.joinable())
            conn->thread.join();
}

int
NasscServer::tcp_port() const
{
    return impl_->bound_port;
}

const std::string &
NasscServer::unix_path() const
{
    return impl_->options.unix_path;
}

void
NasscServer::register_backend(std::shared_ptr<const Backend> backend)
{
    if (!backend)
        throw std::invalid_argument("register_backend: null backend");
    std::lock_guard<std::mutex> lk(impl_->backends_mu);
    impl_->backends[backend->name] = std::move(backend);
}

TranspileService &
NasscServer::service()
{
    return *impl_->service;
}

std::uint64_t
NasscServer::requests_seen() const
{
    return impl_->frames.load(std::memory_order_relaxed);
}

std::uint64_t
NasscServer::connections_shed() const
{
    return impl_->conns_shed.load(std::memory_order_relaxed);
}

} // namespace nassc
