#!/usr/bin/env bash
# End-to-end smoke test for the nasscd daemon, run by CI on Release
# builds (and usable locally: tools/nasscd_smoke.sh [BUILD_DIR]).
#
# Exercises the full production path as separate PROCESSES — the
# in-process coverage in tests/test_serve.cc cannot catch daemonization
# bugs (signal handling, socket lifecycle, shutdown drain):
#
#   0. bad command lines (a removed flag, a non-numeric port) must exit 2
#      before any socket is bound;
#   1. start nasscd on a fresh Unix socket and wait for it to listen;
#   2. nassc_client --smoke 4: four client threads push a duplicated
#      workload and verify every response is bit-identical to an
#      in-process transpile() AND that the daemon transpiled each
#      distinct request exactly once (dedup invariant);
#   3. scrape `--metrics` and check nassc_requests_total against the
#      driven load, then drive one traced request (`--option trace=1`)
#      and check its span lines;
#   4. a request carrying an in-process-only execution knob
#      (`--option layout_threads=2`) must fail with exit 1 and name the
#      unknown option;
#   5. one circuit under two fresh seeds: the second must reuse block
#      syntheses of the first (synth_memo_hits in `--stats` grows);
#   6. one fresh-seed request to the idle daemon must run on its
#      connection thread (caller_runs in `--stats` grows);
#   7. one more single-shot request (--builtin) over a fresh connection;
#   8. SIGTERM: the daemon must drain and exit 0.
#
# NASSC_SMOKE_FAILPOINTS=1 runs the same sequence against a daemon with
# a fault profile armed (an injected transpile fault, raised on the
# connection thread when it runs the miss itself, plus a mid-frame
# disconnect); the client runs with --tolerate-faults and must recover
# by retrying, and the SIGTERM drain must still exit 0.
set -euo pipefail

BUILD_DIR=${1:-build}
SOCK=$(mktemp -u /tmp/nasscd_smoke_XXXXXX.sock)

# Only the daemon arms failpoints from the environment (the client
# never calls arm_from_env), so a plain export is safe.
CLIENT_FLAG=""
if [ "${NASSC_SMOKE_FAILPOINTS:-0}" != "0" ]; then
    export NASSC_FAILPOINTS='service.transpile=2*throw(injected worker fault);protocol.write.disconnect=1*trigger'
    CLIENT_FLAG="--tolerate-faults"
    echo "nasscd_smoke: failpoint profile armed"
fi

for bin in nasscd nassc_client; do
    if [ ! -x "$BUILD_DIR/$bin" ]; then
        echo "nasscd_smoke: $BUILD_DIR/$bin missing (build examples first)" >&2
        exit 2
    fi
done

# Bad command lines fail loudly with exit 2 and never bind a socket
# (a daemon that shrugs them off would serve with defaults instead).
expect_rejected() {
    local status=0 err
    err=$(timeout 10 "$BUILD_DIR/nasscd" "$@" 2>&1 >/dev/null) || status=$?
    if [ "$status" -ne 2 ]; then
        echo "nasscd_smoke: 'nasscd $*' exited $status, expected 2" >&2
        rm -f "$SOCK"
        exit 1
    fi
    if [ -e "$SOCK" ]; then
        echo "nasscd_smoke: 'nasscd $*' left socket $SOCK behind" >&2
        rm -f "$SOCK"
        exit 1
    fi
    printf '%s\n' "$err" | head -n 1
}
expect_rejected --unix "$SOCK" --shards 3
expect_rejected --unix "$SOCK" --port foo

"$BUILD_DIR/nasscd" --unix "$SOCK" --threads 4 &
DAEMON_PID=$!
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; rm -f "$SOCK" 2>/dev/null' EXIT

# Wait for the listening socket (the daemon prints its banner only
# after bind+listen, so the socket file appearing means ready).
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "nasscd_smoke: daemon died before listening" >&2
        exit 1
    }
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "nasscd_smoke: socket never appeared" >&2; exit 1; }

"$BUILD_DIR/nassc_client" --unix "$SOCK" --smoke 4 \
    ${CLIENT_FLAG:+$CLIENT_FLAG}

# Observability: the Prometheus scrape must count one increment per
# accepted transpile request.  The smoke drove 16 transpile requests
# (4 circuits x 2 routers x 2 duplicates); retries (fault mode) can
# only leave the counter at or above that.
METRICS=$("$BUILD_DIR/nassc_client" --unix "$SOCK" --metrics)
REQ_TOTAL=$(printf '%s\n' "$METRICS" |
            awk '$1 == "nassc_requests_total" { print $2 }')
DRIVEN=16
if [ -z "${REQ_TOTAL:-}" ]; then
    echo "nasscd_smoke: metrics scrape has no nassc_requests_total" >&2
    printf '%s\n' "$METRICS" >&2
    exit 1
fi
if [ -n "$CLIENT_FLAG" ]; then
    if [ "$REQ_TOTAL" -lt "$DRIVEN" ]; then
        echo "nasscd_smoke: nassc_requests_total $REQ_TOTAL < driven" \
             "$DRIVEN" >&2
        exit 1
    fi
elif [ "$REQ_TOTAL" -ne "$DRIVEN" ]; then
    echo "nasscd_smoke: nassc_requests_total $REQ_TOTAL != driven" \
         "$DRIVEN" >&2
    exit 1
fi
echo "nasscd_smoke: metrics scrape ok (nassc_requests_total=$REQ_TOTAL)"

# A traced request end to end: span lines must cover the documented
# stages on a miss-or-hit path (queue_wait appears either way).
TRACE_ERR=$("$BUILD_DIR/nassc_client" --unix "$SOCK" --builtin bv_n5 \
    --option trace=1 ${CLIENT_FLAG:+$CLIENT_FLAG} 2>&1 >/dev/null)
for stage in queue_wait; do
    if ! printf '%s\n' "$TRACE_ERR" | grep -q "^span $stage "; then
        echo "nasscd_smoke: trace=1 response missing span '$stage'" >&2
        printf '%s\n' "$TRACE_ERR" >&2
        exit 1
    fi
done
echo "nasscd_smoke: trace=1 spans ok"

# Wire options are output identity plus policy: an execution knob is an
# unknown option, answered with an error the client exits 1 on.
KNOB_STATUS=0
KNOB_ERR=$("$BUILD_DIR/nassc_client" --unix "$SOCK" --builtin bv_n5 \
    --option layout_threads=2 2>&1 >/dev/null) || KNOB_STATUS=$?
if [ "$KNOB_STATUS" -ne 1 ] ||
   ! printf '%s\n' "$KNOB_ERR" | grep -q "unknown option 'layout_threads'"; then
    echo "nasscd_smoke: layout_threads=2 exited $KNOB_STATUS, expected 1" \
         "with an unknown-option error" >&2
    printf '%s\n' "$KNOB_ERR" >&2
    exit 1
fi
echo "nasscd_smoke: execution knob rejected on the wire"

# Block resynthesis outlives a request: the daemon's service keeps its
# SynthMemos, so the same circuit under a seed never sent before finds
# the blocks the previous seed synthesized.
stat_row() {
    "$BUILD_DIR/nassc_client" --unix "$SOCK" --stats |
        awk -v row="$1" '$1 == row { print $2 }'
}
memo_hits() { stat_row synth_memo_hits; }
HITS_BEFORE=$(memo_hits)
for seed in 101 102; do
    "$BUILD_DIR/nassc_client" --unix "$SOCK" --builtin bv_n5 \
        --option seed=$seed ${CLIENT_FLAG:+$CLIENT_FLAG} >/dev/null
done
HITS_AFTER=$(memo_hits)
if [ -z "${HITS_BEFORE:-}" ] || [ -z "${HITS_AFTER:-}" ] ||
   [ "$HITS_AFTER" -le "$HITS_BEFORE" ]; then
    echo "nasscd_smoke: synth_memo_hits ${HITS_BEFORE:-missing} ->" \
         "${HITS_AFTER:-missing} over two fresh seeds, expected growth" >&2
    exit 1
fi
echo "nasscd_smoke: block syntheses reused across requests" \
     "(synth_memo_hits $HITS_BEFORE -> $HITS_AFTER)"

# An idle daemon has a parked worker, so a fresh miss runs on its
# connection thread in that worker's place instead of queueing.
RUNS_BEFORE=$(stat_row caller_runs)
"$BUILD_DIR/nassc_client" --unix "$SOCK" --builtin bv_n5 \
    --option seed=103 ${CLIENT_FLAG:+$CLIENT_FLAG} >/dev/null
RUNS_AFTER=$(stat_row caller_runs)
if [ -z "${RUNS_BEFORE:-}" ] || [ -z "${RUNS_AFTER:-}" ] ||
   [ "$RUNS_AFTER" -le "$RUNS_BEFORE" ]; then
    echo "nasscd_smoke: caller_runs ${RUNS_BEFORE:-missing} ->" \
         "${RUNS_AFTER:-missing} over a fresh seed, expected growth" >&2
    exit 1
fi
echo "nasscd_smoke: idle-daemon miss ran on its connection thread" \
     "(caller_runs $RUNS_BEFORE -> $RUNS_AFTER)"

# A fresh connection after the smoke burst: the daemon keeps serving.
"$BUILD_DIR/nassc_client" --unix "$SOCK" --builtin bv_n5 \
    ${CLIENT_FLAG:+$CLIENT_FLAG} >/dev/null

# Graceful shutdown: SIGTERM must drain and exit 0, and the socket
# path must be unlinked on the way out.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
if [ "$DAEMON_STATUS" -ne 0 ]; then
    echo "nasscd_smoke: daemon exited $DAEMON_STATUS on SIGTERM" >&2
    exit 1
fi
if [ -e "$SOCK" ]; then
    echo "nasscd_smoke: daemon left stale socket $SOCK" >&2
    exit 1
fi
trap - EXIT
echo "nasscd_smoke: ok"
