#!/bin/sh
# End-to-end smoke test for the profile service: start smokescreend on an
# ephemeral port, request one tiny repaired profile through the CLI's
# `curve -remote` path (which fails unless the daemon answers 200 with
# profile JSON), assert the rendered tradeoff curve is well-formed and is,
# key and point lines, what the same `curve` prints when it generates in
# process, check that the lone daemon is a ring of one with no replication
# endpoint, then SIGTERM the daemon and require a clean drain.
set -eu

GO=${GO:-go}
WORKDIR=$(mktemp -d)
ADDR_FILE="$WORKDIR/addr"
STORE_DIR="$WORKDIR/store"
DAEMON_LOG="$WORKDIR/daemon.log"
CURVE_OUT="$WORKDIR/curve.out"
LOCAL_OUT="$WORKDIR/local.out"
QUERY="SELECT AVG(count(car)) FROM small RESOLUTION 160"

cleanup() {
    status=$?
    if [ -n "${DAEMON_PID:-}" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -TERM "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        echo "serve-smoke: FAILED (daemon log follows)" >&2
        cat "$DAEMON_LOG" >&2 || true
    fi
    rm -rf "$WORKDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building binaries"
$GO build -o "$WORKDIR/smokescreend" ./cmd/smokescreend
$GO build -o "$WORKDIR/smokescreen" ./cmd/smokescreen

echo "serve-smoke: starting daemon"
"$WORKDIR/smokescreend" -addr 127.0.0.1:0 -addr-file "$ADDR_FILE" \
    -store "$STORE_DIR" -workers 1 >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

# The daemon writes its bound address only once the socket is live.
i=0
while [ ! -s "$ADDR_FILE" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never bound" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || { echo "serve-smoke: daemon died" >&2; exit 1; }
    sleep 0.1
done
ADDR=$(cat "$ADDR_FILE")
echo "serve-smoke: daemon at $ADDR"

echo "serve-smoke: requesting a tiny profile end-to-end"
"$WORKDIR/smokescreen" curve -remote "http://$ADDR" -step 0.05 -max-fraction 0.1 \
    "$QUERY" | tee "$CURVE_OUT"

# Well-formed curve: the artifact key line plus at least one bound point.
grep -q '^artifact key:' "$CURVE_OUT"
grep -q 'f=.*err<=' "$CURVE_OUT"

# A second request must be a pure store hit (no new generation job).
"$WORKDIR/smokescreen" curve -remote "http://$ADDR" -step 0.05 -max-fraction 0.1 \
    "$QUERY" >/dev/null
generations=$(grep -c 'generating key' "$DAEMON_LOG" || true)
if [ "$generations" -ne 1 ]; then
    echo "serve-smoke: expected 1 generation, daemon ran $generations" >&2
    exit 1
fi

# A lone daemon is a ring of one: GET /v1/ring lists only itself, and with
# no peer to accept envelopes from it mounts no replication endpoint, so a
# PUT of the sealed artifact's own envelope is a 404.
echo "serve-smoke: checking the ring of one"
ring=$(curl -sf "http://$ADDR/v1/ring" | tr -d ' \n')
case "$ring" in
*"\"nodes\":[\"$ADDR\"]"*) ;;
*)
    echo "serve-smoke: GET /v1/ring does not list only $ADDR: $ring" >&2
    exit 1
    ;;
esac
KEY=$(sed -n 's/^artifact key: *//p' "$CURVE_OUT")
ENVELOPE="$STORE_DIR/$(printf %s "$KEY" | cut -c1-2)/$KEY.json"
[ -s "$ENVELOPE" ] || { echo "serve-smoke: no stored envelope for key '$KEY'" >&2; exit 1; }
put=$(curl -s -o /dev/null -w '%{http_code}' -X PUT --data-binary "@$ENVELOPE" \
    "http://$ADDR/v1/internal/profiles/$KEY")
if [ "$put" != 404 ]; then
    echo "serve-smoke: PUT /v1/internal/profiles/$KEY answered $put, want 404" >&2
    exit 1
fi

# One answer: the same command without -remote generates in process and
# must print the same artifact key and the same point lines.
echo "serve-smoke: comparing with the in-process curve"
"$WORKDIR/smokescreen" curve -step 0.05 -max-fraction 0.1 "$QUERY" >"$LOCAL_OUT"
grep -E '^artifact key:|err<=' "$CURVE_OUT" >"$WORKDIR/remote.lines"
grep -E '^artifact key:|err<=' "$LOCAL_OUT" >"$WORKDIR/local.lines"
if ! cmp -s "$WORKDIR/remote.lines" "$WORKDIR/local.lines"; then
    echo "serve-smoke: local and remote curve disagree" >&2
    diff "$WORKDIR/remote.lines" "$WORKDIR/local.lines" >&2 || true
    exit 1
fi

echo "serve-smoke: draining daemon with SIGTERM"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q 'drained cleanly' "$DAEMON_LOG"

echo "serve-smoke: OK"
