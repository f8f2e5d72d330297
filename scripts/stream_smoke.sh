#!/bin/sh
# End-to-end smoke test for the streaming-ingest subsystem: start
# smokescreend on an ephemeral port, run a camera stream through the
# daemon's stream API (POST /v1/streams drives internal/camera over an
# in-process pipe into the stream.Receiver), watch several windows
# complete with their any-time bounds, then start an unbounded stream
# and cancel it mid-flight — the cancel must stop detector work without
# persisting a partial window. Finally SIGTERM the daemon and require a
# clean drain.
set -eu

GO=${GO:-go}
WORKDIR=$(mktemp -d)
ADDR_FILE="$WORKDIR/addr"
STORE_DIR="$WORKDIR/store"
DAEMON_LOG="$WORKDIR/daemon.log"
STREAM_OUT="$WORKDIR/stream.out"
LOCAL_OUT="$WORKDIR/local.out"
QUERY='SELECT AVG(count(car)) FROM small SAMPLE 0.15 RESOLUTION 160 NOISE 0.1'
CANCEL_OUT="$WORKDIR/cancel.out"

cleanup() {
    status=$?
    if [ -n "${WATCH_PID:-}" ] && kill -0 "$WATCH_PID" 2>/dev/null; then
        kill "$WATCH_PID" 2>/dev/null || true
        wait "$WATCH_PID" 2>/dev/null || true
    fi
    if [ -n "${DAEMON_PID:-}" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -TERM "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        echo "stream-smoke: FAILED (daemon log follows)" >&2
        cat "$DAEMON_LOG" >&2 || true
    fi
    rm -rf "$WORKDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "stream-smoke: building binaries"
$GO build -o "$WORKDIR/smokescreend" ./cmd/smokescreend
$GO build -o "$WORKDIR/smokescreen" ./cmd/smokescreen

echo "stream-smoke: starting daemon"
"$WORKDIR/smokescreend" -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" \
    -store "$STORE_DIR" -workers 1 >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

i=0
while [ ! -s "$ADDR_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "stream-smoke: daemon never bound" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || { echo "stream-smoke: daemon died" >&2; exit 1; }
    sleep 0.1
done
ADDR=$(cat "$ADDR_FILE")
echo "stream-smoke: daemon at $ADDR"

echo "stream-smoke: streaming two corpus passes in tumbling windows"
"$WORKDIR/smokescreen" stream -remote "http://$ADDR" -window 200 -loops 2 "$QUERY" | tee "$STREAM_OUT"

# Twelve windows (2 x 1200 frames / 200) with any-time bounds; the status
# carries the recent windows, so the watcher prints every one.
[ "$(grep -c '^window ' "$STREAM_OUT")" -eq 12 ]
grep -q 'err <=' "$STREAM_OUT"
# The query sets RESOLUTION and NOISE, which a stream does not repair: every
# bound the daemon's windows print says it is sampling-only.
LABEL='sampling only — RESOLUTION, NOISE not repaired'
[ "$(grep -c "^window .*err <= .*$LABEL" "$STREAM_OUT")" -eq 12 ]
grep -q '12 windows from' "$STREAM_OUT"
grep -q 'done (12 windows)' "$DAEMON_LOG"

echo "stream-smoke: the same request in process answers with the same windows"
"$WORKDIR/smokescreen" stream -window 200 -loops 2 "$QUERY" >"$LOCAL_OUT"
grep '^window ' "$STREAM_OUT" >"$WORKDIR/remote.windows"
grep '^window ' "$LOCAL_OUT" >"$WORKDIR/local.windows"
diff "$WORKDIR/remote.windows" "$WORKDIR/local.windows"
[ "$(grep -c "$LABEL" "$WORKDIR/local.windows")" -eq 12 ]

echo "stream-smoke: without -window the window is one camera session, in the daemon and in process"
"$WORKDIR/smokescreen" stream -remote "http://$ADDR" "$QUERY" | grep '^window ' >"$WORKDIR/remote.session"
"$WORKDIR/smokescreen" stream "$QUERY" | grep '^window ' >"$WORKDIR/local.session"
[ "$(grep -c '\[     0,  1200)' "$WORKDIR/remote.session")" -eq 1 ]
diff "$WORKDIR/remote.session" "$WORKDIR/local.session"

echo "stream-smoke: cancelling an unbounded stream mid-flight"
"$WORKDIR/smokescreen" stream -remote "http://$ADDR" -window 200 -loops 1000 \
    -no-drift "$QUERY" >"$CANCEL_OUT" 2>&1 &
WATCH_PID=$!
# Wait for the first completed window, then interrupt the watcher: it
# DELETEs the stream job, which must tear down promptly.
i=0
while ! grep -q '^window ' "$CANCEL_OUT" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "stream-smoke: unbounded stream produced no window" >&2
        exit 1
    fi
    kill -0 "$WATCH_PID" 2>/dev/null || { echo "stream-smoke: watcher died early" >&2; cat "$CANCEL_OUT" >&2; exit 1; }
    sleep 0.1
done
kill -INT "$WATCH_PID"
wait "$WATCH_PID" || { echo "stream-smoke: watcher failed after cancel" >&2; cat "$CANCEL_OUT" >&2; exit 1; }
WATCH_PID=""
grep -q '^canceled: state canceled' "$CANCEL_OUT"
grep -q 'canceled: context canceled' "$DAEMON_LOG"

echo "stream-smoke: draining daemon with SIGTERM"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q 'drained cleanly' "$DAEMON_LOG"

echo "stream-smoke: OK"
