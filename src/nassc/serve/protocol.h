#ifndef NASSC_SERVE_PROTOCOL_H
#define NASSC_SERVE_PROTOCOL_H

/**
 * @file
 * The nasscd wire protocol: length-prefixed text frames.
 *
 * Framing (both directions):
 *
 *     NASSC/1 <payload-bytes>\n
 *     <payload>
 *
 * — a fixed magic+version token, one decimal byte count, one newline,
 * then exactly that many payload bytes.  A header carrying anything
 * else is malformed.  Text framing keeps the daemon debuggable with a
 * terminal; the length prefix keeps parsing O(1) and payloads
 * binary-safe.  Frames above kMaxFrameBytes are rejected without
 * buffering (a malformed or hostile peer cannot balloon the daemon's
 * memory).
 *
 * Request payload — verb line, then verb-specific lines:
 *
 *     transpile            |  ping  |  metrics
 *     backend <name>
 *     option <key>=<value>     (zero or more; parse_request_options:
 *                               policy and trace never reach the key)
 *     qasm
 *     <OpenQASM 2.0 body, verbatim to end of payload>
 *
 * `metrics` returns Prometheus text exposition: the process's
 * MetricsRegistry histograms plus the service's stat rows
 * (ServiceStats and distance-cache counts as `nassc_<x>_total`
 * counters and `nassc_<x>` gauges).  It is the only monitoring verb:
 * ServeClient::stats() is a client-side view of the same body
 * (obs::stats_from_metrics).
 *
 * Response payload:
 *
 *     status ok | error | deadline_exceeded | overloaded
 *     error <message>          (any non-ok status)
 *     source transpiled|cache_hit|coalesced   (transpile only)
 *     retry-after-ms <N>       (status overloaded: backoff hint)
 *     degraded <trials>        (ok only: deadline cut the layout race
 *                               short; <trials> completed)
 *     trace-id <id>            (trace=1 only: this request's trace)
 *     span <name> <us>         (trace=1 only: one per recorded stage,
 *                               e.g. decode, admission, queue_wait,
 *                               layout_trial, routing, cache_insert)
 *     metrics                  (metrics verb only)
 *     <Prometheus text exposition, verbatim to end of payload>
 *     qasm                     (transpile only)
 *     <routed OpenQASM 2.0 body, verbatim to end of payload>
 *
 * `deadline_exceeded` means the request's own deadline_ms expired
 * before any layout trial completed (retrying the same budget is
 * futile); `overloaded` means admission control shed the request before
 * queueing it (always safe to retry after the hint — transpiles are
 * pure).
 *
 * `source` is the per-request delta (what this request cost the
 * service).  The `metrics` body is a point-in-time snapshot of the
 * whole service, so concurrent clients see interleaved counter motion;
 * transpile responses carry none.
 *
 * The routed QASM body is produced by ir/qasm.h's to_qasm() on the
 * exact TranspileResult the in-process API would hand back, so a
 * daemon round trip is BIT-IDENTICAL to calling transpile() locally
 * with the same backend and options (the protocol adds framing, never
 * meaning).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nassc/service/transpile_service.h"

namespace nassc {

/** Frame size cap, both directions (1 MiB of QASM is ~40k gates). */
inline constexpr std::size_t kMaxFrameBytes = 32u << 20;

/** Protocol token expected at the start of every frame header. */
inline constexpr const char *kFrameMagic = "NASSC/1";

/** One parsed request payload. */
struct ServeRequest
{
    std::string verb;    ///< "transpile", "ping", or "metrics"
    std::string backend; ///< backend name (transpile)
    /** Raw key=value option lines, in wire order. */
    std::vector<std::pair<std::string, std::string>> options;
    std::string qasm; ///< OpenQASM 2.0 body (transpile)
};

/** One parsed response payload. */
struct ServeResponse
{
    /** "ok", "error", "deadline_exceeded", or "overloaded". */
    std::string status;
    std::string error;  ///< human-readable failure (any non-ok status)
    std::string source; ///< cache outcome of a transpile request
    /** Backoff hint for "overloaded" responses, in ms; 0 = absent. */
    int retry_after_ms = 0;
    /** True when the result is best-of-completed-trials (the request's
     *  deadline cut the layout race short). */
    bool degraded = false;
    /** Layout trials that completed; -1 = not reported (non-degraded
     *  responses omit the line unless the server filled it). */
    int trials_consumed = -1;
    /** This request's trace id (trace=1 requests only). */
    std::string trace_id;
    /** Per-stage spans, wire order: (stage name, microseconds). */
    std::vector<std::pair<std::string, std::uint64_t>> spans;
    /** Prometheus text exposition body (metrics verb only). */
    std::string metrics;
    std::string qasm; ///< routed OpenQASM 2.0 body
};

/** @name Payload codec (pure string <-> struct, no I/O). @{ */
std::string encode_request(const ServeRequest &request);
/** @throws std::runtime_error on malformed payloads. */
ServeRequest parse_request(const std::string &payload);
std::string encode_response(const ServeResponse &response);
/** @throws std::runtime_error on malformed payloads. */
ServeResponse parse_response(const std::string &payload);
/** @} */

/** Everything a request's `option` lines set, from one parse. */
struct RequestOptions
{
    TranspileOptions transpile; ///< what the transpile computes
    RequestPolicy policy;       ///< priority, deadline_ms, cache TTL
    bool trace = false;         ///< reply with trace-id and span lines
};

/**
 * Interpret wire `option` pairs in one parse.  The keys are the 14
 * TranspileOptions fields that TranspileOptions::fingerprint() hashes
 * (router=nassc|sabre, seed=0..2^32-1, …, region_radius=N), the three
 * RequestPolicy fields (priority=N, deadline_ms=N, cache_ttl_seconds=X)
 * and trace=0|1 for per-stage span lines: output identity plus policy.
 * The execution knobs layout_threads, reuse_routing,
 * sparse_distance_threshold and distance_row_budget_bytes are not wire
 * keys, so no client can size the daemon's distance cache or workers.
 * Only `transpile` reaches the request's cache key; a repeated key's
 * last value wins.
 * @throws std::runtime_error on unknown keys or unparsable values, so
 * a typo'd request fails loudly instead of transpiling with defaults,
 * on non-finite numbers, on negative deadline_ms, cache_ttl_seconds or
 * region_radius, and on layout_trials > 256 or layout_iterations > 64.
 */
RequestOptions parse_request_options(
    const std::vector<std::pair<std::string, std::string>> &options);

/**
 * Parse the decimal `<len>` field of a frame header.  Strict: digits
 * only (no sign, no leading '+', no whitespace, no trailing junk), and
 * the value must fit std::size_t without overflow.
 * @throws std::runtime_error on any violation.
 */
std::size_t parse_frame_length(const std::string &text);

/** @name Frame I/O over a connected socket fd.
 * Blocking, EINTR-safe, partial-read/write-safe.  read_frame consumes
 * exactly one frame and no byte of the next (its header costs two
 * recv()s when it arrives whole); it returns false on clean EOF before
 * any header byte, and throws std::runtime_error on malformed or
 * runaway (over 64 bytes) headers, oversized frames, or socket errors.
 * @{ */
bool read_frame(int fd, std::string &payload);
void write_frame(int fd, const std::string &payload);
/** @} */

} // namespace nassc

#endif // NASSC_SERVE_PROTOCOL_H
