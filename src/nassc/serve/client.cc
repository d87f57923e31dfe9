#include "nassc/serve/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "nassc/obs/metrics.h"

namespace nassc {

namespace {

[[noreturn]] void
sys_fail(const std::string &what)
{
    throw std::runtime_error("nassc client: " + what + ": " +
                             std::strerror(errno));
}

} // namespace

ServeClient
ServeClient::connect_unix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("nassc client: unix socket path too long: " +
                                 path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    // SOCK_CLOEXEC: a child the caller forks must not inherit its
    // parent's client connections (they would hold peers open past our
    // close).
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        sys_fail("socket(AF_UNIX)");
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        sys_fail("connect(" + path + ")");
    }
    return ServeClient(fd);
}

ServeClient
ServeClient::connect_tcp(const std::string &host, int port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("nassc client: bad host '" + host + "'");
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        sys_fail("socket(AF_INET)");
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        sys_fail("connect(" + host + ":" + std::to_string(port) + ")");
    }
    return ServeClient(fd);
}

ServeClient::ServeClient(ServeClient &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

ServeClient::~ServeClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

ServeResponse
ServeClient::request(const ServeRequest &req)
{
    if (fd_ < 0)
        throw std::runtime_error("nassc client: not connected");
    write_frame(fd_, encode_request(req));
    std::string payload;
    if (!read_frame(fd_, payload))
        throw std::runtime_error(
            "nassc client: server closed the connection");
    return parse_response(payload);
}

ServeResponse
ServeClient::transpile_qasm(
    const std::string &qasm, const std::string &backend,
    const std::vector<std::pair<std::string, std::string>> &options)
{
    ServeRequest req;
    req.verb = "transpile";
    req.backend = backend;
    req.options = options;
    req.qasm = qasm;
    ServeResponse resp = request(req);
    if (resp.status != "ok")
        throw std::runtime_error("nassc client: server error: " +
                                 resp.error);
    return resp;
}

std::map<std::string, std::uint64_t>
ServeClient::stats()
{
    return obs::stats_from_metrics(metrics());
}

std::string
ServeClient::metrics()
{
    ServeRequest req;
    req.verb = "metrics";
    ServeResponse resp = request(req);
    if (resp.status != "ok")
        throw std::runtime_error("nassc client: server error: " +
                                 resp.error);
    return resp.metrics;
}

bool
ServeClient::ping()
{
    ServeRequest req;
    req.verb = "ping";
    return request(req).status == "ok";
}

void
ServeClient::set_io_timeout(int ms)
{
    if (fd_ < 0)
        throw std::runtime_error("nassc client: not connected");
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0)
        sys_fail("setsockopt(SO_RCVTIMEO)");
    if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) < 0)
        sys_fail("setsockopt(SO_SNDTIMEO)");
}

ServeClient
ServeEndpoint::connect() const
{
    if (!unix_path.empty())
        return ServeClient::connect_unix(unix_path);
    if (tcp_port >= 0)
        return ServeClient::connect_tcp(host, tcp_port);
    throw std::runtime_error("nassc client: endpoint has no transport");
}

ServeClient &
RetryingServeClient::session()
{
    if (!client_) {
        client_.emplace(endpoint_.connect());
        if (policy_.io_timeout_ms > 0)
            client_->set_io_timeout(policy_.io_timeout_ms);
        ++retry_stats_.reconnects;
    }
    return *client_;
}

void
RetryingServeClient::drop_session()
{
    client_.reset();
}

int
RetryingServeClient::backoff(int attempt, int hint_ms)
{
    // Exponential with full jitter on the upper half: wait in
    // [exp/2, exp], so concurrent retriers decorrelate without ever
    // retrying instantly.  The server's hint is a floor — it knows how
    // loaded it is better than our exponent does.
    long exp = policy_.base_backoff_ms > 0 ? policy_.base_backoff_ms : 1;
    for (int k = 0; k < attempt && exp < policy_.max_backoff_ms; ++k)
        exp *= 2;
    exp = std::min<long>(exp, policy_.max_backoff_ms);
    std::minstd_rand rng(policy_.jitter_seed +
                         static_cast<unsigned>(retry_stats_.attempts));
    long wait = exp / 2 + static_cast<long>(rng() % (exp / 2 + 1));
    wait = std::max<long>(wait, hint_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    retry_stats_.backoff_ms += static_cast<std::uint64_t>(wait);
    return static_cast<int>(wait);
}

ServeResponse
RetryingServeClient::request(const ServeRequest &req)
{
    std::string last_error;
    const int attempts = std::max(1, policy_.max_attempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            ++retry_stats_.retries;
        int hint_ms = 0;
        try {
            ++retry_stats_.attempts;
            ServeResponse resp = session().request(req);
            if (resp.status == "overloaded") {
                // Shed, not failed: always retryable (purity), waiting
                // at least the server's hint.
                ++retry_stats_.overloaded;
                last_error = "server overloaded: " + resp.error;
                hint_ms = resp.retry_after_ms;
            } else if (resp.status == "error" &&
                       policy_.retry_application_errors &&
                       attempt + 1 < attempts) {
                last_error = "server error: " + resp.error;
            } else {
                return resp;
            }
        } catch (const std::exception &e) {
            // Transport failure: the connection is in an unknown state,
            // so retry on a FRESH one.  (Includes connect() refusals
            // during daemon warm-up.)
            last_error = e.what();
            drop_session();
        }
        if (attempt + 1 < attempts)
            backoff(attempt, hint_ms);
    }
    throw std::runtime_error("nassc client: " + std::to_string(attempts) +
                             " attempts exhausted; last error: " +
                             last_error);
}

ServeResponse
RetryingServeClient::transpile_qasm(
    const std::string &qasm, const std::string &backend,
    const std::vector<std::pair<std::string, std::string>> &options)
{
    ServeRequest req;
    req.verb = "transpile";
    req.backend = backend;
    req.options = options;
    req.qasm = qasm;
    ServeResponse resp = request(req);
    if (resp.status != "ok")
        throw std::runtime_error("nassc client: server error: " +
                                 resp.error);
    return resp;
}

std::map<std::string, std::uint64_t>
RetryingServeClient::stats()
{
    return obs::stats_from_metrics(metrics());
}

std::string
RetryingServeClient::metrics()
{
    ServeRequest req;
    req.verb = "metrics";
    ServeResponse resp = request(req);
    if (resp.status != "ok")
        throw std::runtime_error("nassc client: server error: " +
                                 resp.error);
    return resp.metrics;
}

bool
RetryingServeClient::ping()
{
    ServeRequest req;
    req.verb = "ping";
    try {
        return request(req).status == "ok";
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace nassc
