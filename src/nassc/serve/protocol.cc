#include "nassc/serve/protocol.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

#include "nassc/service/errors.h"
#include "nassc/service/failpoint.h"

namespace nassc {

namespace {

/**
 * Largest layout search a wire request may ask for.  The deadline is
 * polled only between layout trials, so these caps are what bounds the
 * trial allocation and the work of one trial.
 */
constexpr int kMaxWireLayoutTrials = 256;
constexpr int kMaxWireLayoutIterations = 64;

[[noreturn]] void
bad_payload(const std::string &what)
{
    throw std::runtime_error("nassc protocol: " + what);
}

/** Map a failed recv/send to the right exception.  On a socket with
 *  SO_RCVTIMEO/SO_SNDTIMEO armed (ServeClient::set_io_timeout) the
 *  kernel reports an expired timeout as EAGAIN/EWOULDBLOCK — surface
 *  that as the typed TranspileTransportTimeout so callers can
 *  distinguish "peer wedged, retry on a fresh connection" from a hard
 *  transport error. */
[[noreturn]] void
io_failed(const char *op, int err)
{
    if (err == EAGAIN || err == EWOULDBLOCK)
        throw TranspileTransportTimeout(std::string("nassc protocol: ") +
                                        op + " timed out (peer wedged?)");
    throw std::runtime_error(std::string("nassc protocol: ") + op + ": " +
                             std::strerror(err));
}

/** Consume one '\n'-terminated line starting at `pos`; returns the line
 *  without the newline and advances `pos` past it. */
std::string
next_line(const std::string &payload, std::size_t &pos)
{
    const std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos)
        bad_payload("unterminated line");
    std::string line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
}

/** Split "key=value"; everything before the first '=' is the key. */
std::pair<std::string, std::string>
split_kv(const std::string &line, const char *context)
{
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        bad_payload(std::string(context) + " line without '=': " + line);
    return {line.substr(0, eq), line.substr(eq + 1)};
}

bool
parse_bool(const std::string &key, const std::string &value)
{
    if (value == "0" || value == "false")
        return false;
    if (value == "1" || value == "true")
        return true;
    bad_payload("option " + key + ": expected 0/1/true/false, got '" +
                value + "'");
}

int
parse_int(const std::string &key, const std::string &value)
{
    try {
        std::size_t used = 0;
        const int v = std::stoi(value, &used);
        if (used == value.size())
            return v;
    } catch (const std::exception &) {
    }
    bad_payload("option " + key + ": expected an integer, got '" + value +
                "'");
}

/** Full-range unsigned parse: digits only, so "-1" cannot wrap. */
unsigned
parse_unsigned(const std::string &key, const std::string &value)
{
    unsigned v = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec == std::errc() && ptr == end)
        return v;
    bad_payload("option " + key + ": expected an integer in [0, " +
                std::to_string(std::numeric_limits<unsigned>::max()) +
                "], got '" + value + "'");
}

/** parse_int() capped at `max`: bounds a client-sized search. */
int
parse_int_at_most(const std::string &key, const std::string &value, int max)
{
    const int v = parse_int(key, value);
    if (v > max)
        bad_payload("option " + key + ": must be <= " + std::to_string(max) +
                    ", got '" + value + "'");
    return v;
}

/** Finite numbers only: "nan", "inf" and overflowing literals fail. */
double
parse_double(const std::string &key, const std::string &value)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(value, &used);
        if (used == value.size() && std::isfinite(v))
            return v;
    } catch (const std::exception &) {
    }
    bad_payload("option " + key + ": expected a finite number, got '" +
                value + "'");
}

} // namespace

std::string
encode_request(const ServeRequest &request)
{
    std::string out = request.verb + "\n";
    if (request.verb == "transpile") {
        out += "backend " + request.backend + "\n";
        for (const auto &kv : request.options)
            out += "option " + kv.first + "=" + kv.second + "\n";
        out += "qasm\n";
        out += request.qasm;
    }
    return out;
}

ServeRequest
parse_request(const std::string &payload)
{
    ServeRequest request;
    std::size_t pos = 0;
    request.verb = next_line(payload, pos);
    if (request.verb == "ping" || request.verb == "metrics")
        return request;
    if (request.verb != "transpile")
        bad_payload("unknown verb '" + request.verb + "'");

    for (;;) {
        const std::string line = next_line(payload, pos);
        if (line == "qasm") {
            request.qasm = payload.substr(pos);
            return request;
        }
        if (line.rfind("backend ", 0) == 0) {
            request.backend = line.substr(8);
        } else if (line.rfind("option ", 0) == 0) {
            request.options.push_back(split_kv(line.substr(7), "option"));
        } else {
            bad_payload("unexpected request line '" + line + "'");
        }
    }
}

std::string
encode_response(const ServeResponse &response)
{
    std::string out = "status " + response.status + "\n";
    if (!response.error.empty())
        out += "error " + response.error + "\n";
    if (!response.source.empty())
        out += "source " + response.source + "\n";
    if (response.retry_after_ms > 0)
        out += "retry-after-ms " + std::to_string(response.retry_after_ms) +
               "\n";
    if (response.degraded)
        out += "degraded " + std::to_string(response.trials_consumed) + "\n";
    if (!response.trace_id.empty())
        out += "trace-id " + response.trace_id + "\n";
    for (const auto &span : response.spans)
        out += "span " + span.first + " " + std::to_string(span.second) +
               "\n";
    // Body sections are terminal and mutually exclusive by verb.
    if (!response.metrics.empty()) {
        out += "metrics\n";
        out += response.metrics;
    } else if (!response.qasm.empty()) {
        out += "qasm\n";
        out += response.qasm;
    }
    return out;
}

ServeResponse
parse_response(const std::string &payload)
{
    ServeResponse response;
    std::size_t pos = 0;
    for (;;) {
        if (pos >= payload.size())
            return response;
        const std::string line = next_line(payload, pos);
        if (line == "qasm") {
            response.qasm = payload.substr(pos);
            return response;
        }
        if (line == "metrics") {
            response.metrics = payload.substr(pos);
            return response;
        }
        if (line.rfind("status ", 0) == 0) {
            response.status = line.substr(7);
        } else if (line.rfind("error ", 0) == 0) {
            response.error = line.substr(6);
        } else if (line.rfind("source ", 0) == 0) {
            response.source = line.substr(7);
        } else if (line.rfind("retry-after-ms ", 0) == 0) {
            response.retry_after_ms =
                parse_int("retry-after-ms", line.substr(15));
        } else if (line.rfind("degraded ", 0) == 0) {
            response.degraded = true;
            response.trials_consumed = parse_int("degraded", line.substr(9));
        } else if (line.rfind("trace-id ", 0) == 0) {
            response.trace_id = line.substr(9);
        } else if (line.rfind("span ", 0) == 0) {
            // "span <name> <us>"; stage names never contain spaces.
            const std::string body = line.substr(5);
            const std::size_t sp = body.rfind(' ');
            if (sp == std::string::npos || sp == 0)
                bad_payload("malformed span line '" + line + "'");
            const std::string us_text = body.substr(sp + 1);
            response.spans.emplace_back(
                body.substr(0, sp),
                static_cast<std::uint64_t>(parse_frame_length(us_text)));
        } else {
            bad_payload("unexpected response line '" + line + "'");
        }
    }
}

RequestOptions
parse_request_options(
    const std::vector<std::pair<std::string, std::string>> &options)
{
    RequestOptions out;
    TranspileOptions &opts = out.transpile;
    RequestPolicy &policy = out.policy;
    for (const auto &kv : options) {
        const std::string &key = kv.first;
        const std::string &value = kv.second;
        if (key == "router") {
            if (value == "nassc")
                opts.router = RoutingAlgorithm::kNassc;
            else if (value == "sabre")
                opts.router = RoutingAlgorithm::kSabre;
            else
                bad_payload("option router: expected nassc|sabre, got '" +
                            value + "'");
        } else if (key == "seed") {
            opts.seed = parse_unsigned(key, value);
        } else if (key == "noise_aware") {
            opts.noise_aware = parse_bool(key, value);
        } else if (key == "enable_c2q") {
            opts.enable_c2q = parse_bool(key, value);
        } else if (key == "enable_commute1") {
            opts.enable_commute1 = parse_bool(key, value);
        } else if (key == "enable_commute2") {
            opts.enable_commute2 = parse_bool(key, value);
        } else if (key == "extended_size") {
            opts.extended_size = parse_int(key, value);
        } else if (key == "extended_weight") {
            opts.extended_weight = parse_double(key, value);
        } else if (key == "layout_iterations") {
            opts.layout_iterations =
                parse_int_at_most(key, value, kMaxWireLayoutIterations);
        } else if (key == "layout_trials") {
            opts.layout_trials =
                parse_int_at_most(key, value, kMaxWireLayoutTrials);
        } else if (key == "opt_loop_rounds") {
            opts.opt_loop_rounds = parse_int(key, value);
        } else if (key == "orientation_aware_decomposition") {
            opts.orientation_aware_decomposition = parse_bool(key, value);
        } else if (key == "use_decay") {
            opts.use_decay = parse_bool(key, value);
        } else if (key == "priority") {
            policy.priority = parse_int(key, value);
        } else if (key == "cache_ttl_seconds") {
            policy.cache_ttl_seconds = parse_double(key, value);
            if (policy.cache_ttl_seconds < 0)
                bad_payload("option cache_ttl_seconds: must be >= 0, got '" +
                            value + "'");
        } else if (key == "deadline_ms") {
            policy.deadline_ms = parse_int(key, value);
            if (policy.deadline_ms < 0)
                bad_payload("option deadline_ms: must be >= 0, got '" +
                            value + "'");
        } else if (key == "region_radius") {
            opts.region_radius = parse_int(key, value);
            if (opts.region_radius < 0)
                bad_payload("option region_radius: must be >= 0, got '" +
                            value + "'");
        } else if (key == "trace") {
            out.trace = parse_bool(key, value);
        } else {
            bad_payload("unknown option '" + key + "'");
        }
    }
    return out;
}

std::size_t
parse_frame_length(const std::string &text)
{
    // Hand-rolled on purpose: std::stoull accepts leading whitespace,
    // '+', and NEGATIVE values (wrapped through unsigned long long),
    // and saturates detection behind exceptions.  A length field is
    // attacker-controlled input; accept digits and nothing else, and
    // reject overflow explicitly instead of wrapping.
    if (text.empty())
        throw std::runtime_error("nassc protocol: empty frame length");
    std::size_t len = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            throw std::runtime_error(
                "nassc protocol: non-numeric frame length '" + text + "'");
        const std::size_t digit = static_cast<std::size_t>(c - '0');
        if (len > (std::numeric_limits<std::size_t>::max() - digit) / 10)
            throw std::runtime_error(
                "nassc protocol: frame length overflows in '" + text + "'");
        len = len * 10 + digit;
    }
    return len;
}

bool
read_frame(int fd, std::string &payload)
{
    // Header: "NASSC/1 <len>\n".  Peek at what has arrived, then consume
    // exactly the header bytes: two recv()s for a header that arrives
    // whole, and never a byte of the payload, so a pipelined next frame
    // (and the server's hang-up probe) still sees the socket as the
    // peer wrote it.  A header split across sends is consumed piecewise.
    constexpr std::size_t kMaxHeader = 64; // bytes before the '\n'
    std::string header;
    for (;;) {
        char buf[kMaxHeader + 1];
        const ssize_t n = ::recv(fd, buf, kMaxHeader + 1 - header.size(),
                                 MSG_PEEK);
        if (n == 0) {
            if (header.empty())
                return false; // clean EOF between frames
            throw std::runtime_error("nassc protocol: EOF inside header");
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io_failed("recv", errno);
        }
        const char *nl = static_cast<const char *>(
            std::memchr(buf, '\n', static_cast<std::size_t>(n)));
        const std::size_t take =
            nl ? static_cast<std::size_t>(nl - buf) + 1
               : static_cast<std::size_t>(n);
        if (!nl && header.size() + take > kMaxHeader)
            throw std::runtime_error("nassc protocol: runaway frame header");
        // The peeked bytes are queued, so this recv returns them at once.
        for (std::size_t got = 0; got < take;) {
            const ssize_t m = ::recv(fd, buf + got, take - got, 0);
            if (m == 0)
                throw std::runtime_error("nassc protocol: EOF inside header");
            if (m < 0) {
                if (errno == EINTR)
                    continue;
                io_failed("recv", errno);
            }
            got += static_cast<std::size_t>(m);
        }
        header.append(buf, nl ? take - 1 : take);
        if (nl)
            break;
    }

    const std::string magic = std::string(kFrameMagic) + " ";
    if (header.rfind(magic, 0) != 0)
        throw std::runtime_error("nassc protocol: bad frame magic '" +
                                 header + "'");
    const std::size_t len = parse_frame_length(header.substr(magic.size()));
    if (len > kMaxFrameBytes)
        throw std::runtime_error("nassc protocol: frame of " +
                                 std::to_string(len) +
                                 " bytes exceeds the " +
                                 std::to_string(kMaxFrameBytes) +
                                 "-byte cap");

    payload.clear();
    payload.resize(len);
    std::size_t got = 0;
    while (got < len) {
        // Failpoints exercising the partial-I/O loop itself: an EINTR
        // storm (spurious wakeups must re-enter the loop, not error)
        // and a short-read clamp (1 byte per recv, so reassembly of a
        // fragmented payload is on the tested path).
        if (failpoint::eval("protocol.read.eintr"))
            continue;
        std::size_t want = len - got;
        if (failpoint::eval("protocol.read.short"))
            want = 1;
        const ssize_t n = ::recv(fd, &payload[got], want, 0);
        if (n == 0)
            throw std::runtime_error("nassc protocol: EOF inside payload");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io_failed("recv", errno);
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

void
write_frame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        throw std::runtime_error("nassc protocol: refusing to send a " +
                                 std::to_string(payload.size()) +
                                 "-byte frame");
    std::string frame = std::string(kFrameMagic) + " " +
                        std::to_string(payload.size()) + "\n" + payload;
    std::size_t sent = 0;
    while (sent < frame.size()) {
        std::size_t chunk = frame.size() - sent;
        // Short-write clamp: 1 byte per send, forcing the resume loop.
        if (failpoint::eval("protocol.write.short"))
            chunk = 1;
        // Mid-frame disconnect: send about half of what remains, then
        // kill the connection — the peer sees a truncated payload and
        // must fail cleanly ("EOF inside payload"), never hang.
        const bool drop = static_cast<bool>(
            failpoint::eval("protocol.write.disconnect"));
        if (drop && chunk > 1)
            chunk = chunk / 2;
        // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not SIGPIPE.
        const ssize_t n =
            ::send(fd, frame.data() + sent, chunk, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io_failed("send", errno);
        }
        sent += static_cast<std::size_t>(n);
        if (drop) {
            ::shutdown(fd, SHUT_RDWR);
            throw std::runtime_error(
                "nassc protocol: injected mid-frame disconnect");
        }
    }
}

} // namespace nassc
