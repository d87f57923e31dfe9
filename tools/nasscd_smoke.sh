#!/usr/bin/env bash
# End-to-end smoke test for the nasscd daemon, run by CI on Release
# builds (and usable locally: tools/nasscd_smoke.sh [BUILD_DIR]).
#
# Exercises the full production path as separate PROCESSES — the
# in-process coverage in tests/test_serve.cc cannot catch daemonization
# bugs (signal handling, socket lifecycle, shutdown drain):
#
#   1. start nasscd on a fresh Unix socket and wait for it to listen;
#   2. nassc_client --smoke 4: four client threads push a duplicated
#      workload and verify every response is bit-identical to an
#      in-process transpile() AND that the daemon transpiled each
#      distinct request exactly once (dedup invariant);
#   3. scrape `--metrics` and check nassc_requests_total against the
#      driven load, then drive one traced request (`--option trace=1`)
#      and check its span lines;
#   4. one more single-shot request (--builtin) over a fresh connection;
#   5. SIGTERM: the daemon must drain and exit 0.
#
# NASSC_SMOKE_FAILPOINTS=1 runs the same sequence against a daemon with
# a fault profile armed (an injected worker fault plus a mid-frame
# disconnect); the client runs with --tolerate-faults and must recover
# by retrying, and the SIGTERM drain must still exit 0.
#
# NASSC_SMOKE_SHARDS=1 runs the SHARDED deployment instead: a front
# door with --shards 3, a long restart-tolerant smoke load, and a
# kill -9 of one worker shard mid-run.  The client must finish with
# zero failures and bit-identical responses (transparent failover),
# the supervisor must restart the shard, and the SIGTERM drain must
# still exit 0 with every socket (front + shards) unlinked.
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

SHARDS=0
DAEMON_ARGS=(--unix "$SOCK" --threads 4)
if [ "${NASSC_SMOKE_SHARDS:-0}" != "0" ]; then
    SHARDS=3
    DAEMON_ARGS=(--unix "$SOCK" --shards "$SHARDS" --threads 2)
    echo "nasscd_smoke: sharded mode ($SHARDS worker shards)"
fi

"$BUILD_DIR/nasscd" "${DAEMON_ARGS[@]}" &
DAEMON_PID=$!
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; rm -f "$SOCK" "$SOCK".shard* 2>/dev/null' EXIT

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

if [ "$SHARDS" -gt 0 ]; then
    # Wait for every worker shard's socket too — the front only routes
    # once the supervisor has the fleet up.
    for i in $(seq 0 $((SHARDS - 1))); do
        for _ in $(seq 1 100); do
            [ -S "$SOCK.shard$i" ] && break
            sleep 0.1
        done
        [ -S "$SOCK.shard$i" ] || {
            echo "nasscd_smoke: shard $i socket never appeared" >&2
            exit 1
        }
    done

    # Find a worker shard's pid by scanning /proc cmdlines for its
    # socket path.  (pgrep -f / pkill -f are booby traps here: the
    # pattern text appears in THIS shell's own cmdline, and unescaped
    # dots match any byte.)
    find_shard_pid() {
        local p
        for p in /proc/[0-9]*/cmdline; do
            if tr '\0' '\n' < "$p" 2>/dev/null | grep -Fxq "$SOCK.shard1"
            then
                basename "$(dirname "$p")"
                return 0
            fi
        done
        return 1
    }
    SHARD_PID=$(find_shard_pid) || {
        echo "nasscd_smoke: could not locate shard 1's pid" >&2
        exit 1
    }

    # One row of the front's --stats view (its metrics scrape).
    stat_row() {
        "$BUILD_DIR/nassc_client" --unix "$SOCK" --stats |
            awk -v k="$1" '$1 == k { print $2 }'
    }

    # Long restart-tolerant smoke load in the background, then murder
    # shard 1 mid-run.  Failover must make the load finish with ZERO
    # failures and bit-identical responses; the supervisor must bring
    # the shard back.  The kill waits for the load to reach the shards
    # (the front's `forwards` counter moves), not for a fixed sleep: a
    # fast host can finish the whole load inside any fixed delay.
    FORWARDS_BEFORE=$(stat_row forwards)
    "$BUILD_DIR/nassc_client" --unix "$SOCK" --smoke 4 --repeat 1000 \
        --tolerate-restarts &
    SMOKE_PID=$!
    while kill -0 "$SMOKE_PID" 2>/dev/null; do
        FORWARDS=$(stat_row forwards)
        [ "${FORWARDS:-0}" -gt "${FORWARDS_BEFORE:-0}" ] && break
        sleep 0.01
    done
    if ! kill -0 "$SMOKE_PID" 2>/dev/null; then
        echo "nasscd_smoke: smoke load finished before the crash" \
             "(machine too fast — raise --repeat)" >&2
        wait "$SMOKE_PID" || exit 1
        exit 1
    fi
    kill -9 "$SHARD_PID"
    echo "nasscd_smoke: killed shard 1 (pid $SHARD_PID) mid-load"
    SMOKE_STATUS=0
    wait "$SMOKE_PID" || SMOKE_STATUS=$?
    if [ "$SMOKE_STATUS" -ne 0 ]; then
        echo "nasscd_smoke: sharded smoke load failed ($SMOKE_STATUS)" >&2
        exit 1
    fi

    # The supervisor restarted the shard and the fleet is whole again:
    # the --stats view of the front's metrics scrape must show the
    # restart and all shards live.  A restarted shard counts as live
    # only after its next forward or health check, so shards_live is
    # polled for up to 10 s rather than read once.
    RESTARTS=$(stat_row supervisor_restarts)
    LIVE=$(stat_row shards_live)
    for _ in $(seq 1 100); do
        [ "${LIVE:-0}" -eq "$SHARDS" ] && break
        sleep 0.1
        LIVE=$(stat_row shards_live)
    done
    if [ "${RESTARTS:-0}" -lt 1 ]; then
        echo "nasscd_smoke: expected >=1 supervisor restart, got" \
             "'${RESTARTS:-}'" >&2
        exit 1
    fi
    if [ "${LIVE:-0}" -ne "$SHARDS" ]; then
        echo "nasscd_smoke: expected $SHARDS live shards, got" \
             "'${LIVE:-}'" >&2
        exit 1
    fi
    echo "nasscd_smoke: failover survived ($RESTARTS restart(s)," \
         "$LIVE/$SHARDS shards live)"
else
    "$BUILD_DIR/nassc_client" --unix "$SOCK" --smoke 4 \
        ${CLIENT_FLAG:+$CLIENT_FLAG}
fi

# Observability: the Prometheus scrape must count one increment per
# accepted transpile request (in sharded mode, summed over the
# workers).  The smoke drove 16 transpile requests per pass (4 circuits
# x 2 routers x 2 duplicates); retries (fault mode) and long repeats
# with a crash-reset shard (sharded mode) can only leave the counter at
# or above one clean pass.
METRICS=$("$BUILD_DIR/nassc_client" --unix "$SOCK" --metrics)
REQ_TOTAL=$(printf '%s\n' "$METRICS" |
            awk '$1 == "nassc_requests_total" { print $2 }')
DRIVEN=16
if [ -z "${REQ_TOTAL:-}" ]; then
    echo "nasscd_smoke: metrics scrape has no nassc_requests_total" >&2
    printf '%s\n' "$METRICS" >&2
    exit 1
fi
if [ "$SHARDS" -gt 0 ] || [ -n "$CLIENT_FLAG" ]; then
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
if [ "$SHARDS" -gt 0 ]; then
    for i in $(seq 0 $((SHARDS - 1))); do
        if [ -e "$SOCK.shard$i" ]; then
            echo "nasscd_smoke: stale shard socket $SOCK.shard$i" >&2
            exit 1
        fi
    done
fi
trap - EXIT
echo "nasscd_smoke: ok"
