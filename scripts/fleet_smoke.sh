#!/bin/sh
# End-to-end smoke test for the smokescreend fleet: three REAL daemons
# sharing a consistent-hash ring, driven through smokeload.
#
#   1. herd: concurrent POSTs of one query across all three entry nodes
#      must all succeed with exactly ONE generation fleet-wide (the logs
#      are the ground truth — every node routes the key to its first
#      replica, and singleflight and that replica's job queue each absorb
#      a layer of the herd).
#   2. kill -9 the node that generated, then re-herd the SAME query
#      against the survivors: every request succeeds with ZERO new
#      generations (replication preserved the artifact), GETs through the
#      non-replica survivor are answered from the verified copy it pulled,
#      and a NEW query still generates on a survivor (the fleet keeps
#      working degraded): exactly once, on the new key's first live
#      replica (DESIGN.md §5.5, "generating node dies").
#   3. SIGTERM the survivors and require clean drains.
#
# Before the herd, a stream started on node 1 is read and cancelled through
# node 2: stream ids, like job ids, route to the node that minted them.
set -eu

GO=${GO:-go}
WORKDIR=$(mktemp -d)

cleanup() {
    status=$?
    for pid in ${PIDS:-}; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -KILL "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    if [ "$status" -ne 0 ]; then
        echo "fleet-smoke: FAILED (daemon logs follow)" >&2
        for i in 1 2 3; do
            echo "--- node $i ---" >&2
            cat "$WORKDIR/node$i.log" >&2 2>/dev/null || true
        done
    fi
    rm -rf "$WORKDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building binaries"
$GO build -o "$WORKDIR/smokescreend" ./cmd/smokescreend
$GO build -o "$WORKDIR/smokeload" ./cmd/smokeload

# Start a 3-node fleet on ports derived from our PID, retrying with a
# different base if a port is taken (daemons exit on a failed bind, so a
# missing addr-file inside the timeout means "try other ports").
start_fleet() {
    base=$1
    P1=$base; P2=$((base + 1)); P3=$((base + 2))
    RING="127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$P3"
    PIDS=""
    for i in 1 2 3; do
        eval "port=\$P$i"
        rm -f "$WORKDIR/addr$i"
        "$WORKDIR/smokescreend" -addr "127.0.0.1:$port" \
            -addr-file "$WORKDIR/addr$i" -store "$WORKDIR/store$i" \
            -workers 1 -fleet-nodes "$RING" \
            >"$WORKDIR/node$i.log" 2>&1 &
        PIDS="$PIDS $!"
    done
    for i in 1 2 3; do
        n=0
        while [ ! -s "$WORKDIR/addr$i" ]; do
            n=$((n + 1))
            if [ "$n" -gt 100 ]; then
                return 1
            fi
            sleep 0.1
        done
    done
    return 0
}

attempt=0
until start_fleet $((20000 + ($$ + attempt * 131) % 20000)); do
    attempt=$((attempt + 1))
    if [ "$attempt" -ge 5 ]; then
        echo "fleet-smoke: could not bind a port triple after $attempt attempts" >&2
        exit 1
    fi
    for pid in $PIDS; do
        kill -KILL "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
done
URLS="http://127.0.0.1:$P1,http://127.0.0.1:$P2,http://127.0.0.1:$P3"
echo "fleet-smoke: fleet up at $URLS"

gen_count() {
    total=0
    for i in 1 2 3; do
        c=$(grep -c 'generating key' "$WORKDIR/node$i.log" 2>/dev/null) || c=0
        total=$((total + c))
    done
    echo "$total"
}

QUERY="SELECT AVG(count(car)) FROM small"

# json_field NAME: a top-level string field of the indented JSON on stdin.
json_field() {
    sed -n "s/^  \"$1\": \"\(.*\)\",\{0,1\}\$/\1/p"
}

echo "fleet-smoke: a stream started on node 1 is read and cancelled through node 2"
STREAM=$(curl -sf -X POST "http://127.0.0.1:$P1/v1/streams" \
    -d '{"query":"SELECT AVG(count(car)) FROM small SAMPLE 0.001","loops":100000,"disable_drift":true}')
SID=$(echo "$STREAM" | json_field id)
SQUERY=$(echo "$STREAM" | json_field query)
[ -n "$SID" ] && [ -n "$SQUERY" ] || { echo "fleet-smoke: POST /v1/streams returned no id and query: $STREAM" >&2; exit 1; }
VIA2=$(curl -sf "http://127.0.0.1:$P2/v1/streams/$SID") || {
    echo "fleet-smoke: GET of node 1's stream $SID through node 2 failed" >&2
    exit 1
}
if [ "$(echo "$VIA2" | json_field id)" != "$SID" ] || [ "$(echo "$VIA2" | json_field query)" != "$SQUERY" ]; then
    echo "fleet-smoke: node 2 answered for $SID with another stream: $VIA2" >&2
    exit 1
fi
curl -sf -X DELETE "http://127.0.0.1:$P2/v1/streams/$SID" >/dev/null || {
    echo "fleet-smoke: DELETE of node 1's stream $SID through node 2 failed" >&2
    exit 1
}
n=0
until [ "$(curl -sf "http://127.0.0.1:$P1/v1/streams/$SID" | json_field state)" = canceled ]; do
    n=$((n + 1))
    if [ "$n" -gt 100 ]; then
        echo "fleet-smoke: node 1 never reported stream $SID canceled" >&2
        exit 1
    fi
    sleep 0.1
done

echo "fleet-smoke: hot-key herd across all nodes"
"$WORKDIR/smokeload" -urls "$URLS" -scenario herd -clients 6 \
    -query "$QUERY" -step 0.05 -max-fraction 0.1
gens=$(gen_count)
if [ "$gens" -ne 1 ]; then
    echo "fleet-smoke: herd cost $gens generations fleet-wide, want exactly 1" >&2
    exit 1
fi

# Find and kill -9 the node that generated: its replicas must carry on.
VICTIM=""
for i in 1 2 3; do
    if grep -q 'generating key' "$WORKDIR/node$i.log"; then
        VICTIM=$i
        break
    fi
done
[ -n "$VICTIM" ] || { echo "fleet-smoke: no generator found in logs" >&2; exit 1; }
eval "victim_port=\$P$VICTIM"
echo "fleet-smoke: kill -9 node $VICTIM (127.0.0.1:$victim_port, the generator)"
set -- $PIDS
victim_pid=$(eval "echo \$$VICTIM")
kill -KILL "$victim_pid"
wait "$victim_pid" 2>/dev/null || true

SURVIVOR_URLS=""
SURVIVOR_PIDS=""
for i in 1 2 3; do
    [ "$i" = "$VICTIM" ] && continue
    eval "port=\$P$i"
    SURVIVOR_URLS="$SURVIVOR_URLS,http://127.0.0.1:$port"
    SURVIVOR_PIDS="$SURVIVOR_PIDS $(eval "echo \$$i")"
done
SURVIVOR_URLS=${SURVIVOR_URLS#,}

echo "fleet-smoke: re-herd the same query against survivors (replica serving)"
"$WORKDIR/smokeload" -urls "$SURVIVOR_URLS" -scenario herd -clients 4 \
    -query "$QUERY" -step 0.05 -max-fraction 0.1
gens=$(gen_count)
if [ "$gens" -ne 1 ]; then
    echo "fleet-smoke: replicated artifact was regenerated ($gens generations, want 1)" >&2
    exit 1
fi

# The generator was a replica, so one survivor is the key's other replica
# and one replicates nothing of it: the re-herd made that one pull a
# verified copy, and reads entering there are now served in place. Steady
# is one warm re-POST, then GETs (and a few re-POSTs) alternating entry nodes.
echo "fleet-smoke: GETs through the non-replica survivor are served from its copy"
"$WORKDIR/smokeload" -urls "$SURVIVOR_URLS" -scenario steady -clients 2 \
    -requests 8 -query "$QUERY" -step 0.05 -max-fraction 0.1 -json >"$WORKDIR/steady.json"
cat "$WORKDIR/steady.json"
grep -q '"entry_hits": [1-9]' "$WORKDIR/steady.json" || {
    echo "fleet-smoke: no read was answered from an entry-node copy" >&2
    exit 1
}
gens=$(gen_count)
if [ "$gens" -ne 1 ]; then
    echo "fleet-smoke: serving the replicated artifact regenerated it ($gens generations, want 1)" >&2
    exit 1
fi

echo "fleet-smoke: new query must still generate on a survivor"
"$WORKDIR/smokeload" -urls "$SURVIVOR_URLS" -scenario herd -clients 4 \
    -query "SELECT AVG(count(person)) FROM small" -step 0.05 -max-fraction 0.1
gens=$(gen_count)
if [ "$gens" -ne 2 ]; then
    echo "fleet-smoke: degraded fleet ran $gens total generations, want 2 (one per key)" >&2
    exit 1
fi

echo "fleet-smoke: draining survivors with SIGTERM"
for pid in $SURVIVOR_PIDS; do
    kill -TERM "$pid"
done
for pid in $SURVIVOR_PIDS; do
    wait "$pid" 2>/dev/null || true
done
PIDS=""
for i in 1 2 3; do
    [ "$i" = "$VICTIM" ] && continue
    grep -q 'drained cleanly' "$WORKDIR/node$i.log" || {
        echo "fleet-smoke: node $i did not drain cleanly" >&2
        exit 1
    }
done

echo "fleet-smoke: OK"
