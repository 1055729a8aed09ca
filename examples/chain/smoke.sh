#!/usr/bin/env bash
# CI smoke for the examples/chain deployment (`make example-smoke`):
# builds the real binaries, generates a fresh 3-server + 2-shard +
# 2-frontend config on ephemeral loopback ports, boots every process,
# and runs the smoke driver, which connects one client to each
# frontend, dials one user from the other, and exchanges a message
# each way over the fully authenticated chain. Exits non-zero if any
# process dies or the messages do not arrive, or if the entry accepts a
# key that is not its pipe key.
set -euo pipefail
cd "$(dirname "$0")/../.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$WORK/bin/" ./cmd/vuvuzela-keygen ./cmd/vuvuzela-server ./cmd/vuvuzela-entry ./cmd/vuvuzela-frontend
go build -o "$WORK/bin/smoke" ./examples/chain/smoke

# A port block derived from the PID keeps parallel CI jobs from
# colliding; the deployment needs base-2 .. base+7 (frontend pipe below
# the entry port, frontends above the shards). Staying below 32768
# keeps the block out of the kernel's ephemeral port range, where a
# transient outbound connection could already hold a port.
BASE_PORT=$(( 10000 + ($$ % 2000) * 10 + 2 ))
echo "== generating config (base port $BASE_PORT)"
"$WORK/bin/vuvuzela-keygen" chain -servers 3 -shards 2 -frontends 2 -out "$WORK/deploy" \
    -base-port "$BASE_PORT" -mu 20 -b 5 -dial-mu 5 -dial-b 2
"$WORK/bin/vuvuzela-keygen" user -name alice -out "$WORK/deploy"
"$WORK/bin/vuvuzela-keygen" user -name bob -out "$WORK/deploy"

# Negative row: an entry given another role's key must refuse it at once
# (its pipe could never authenticate to a frontend), not run without a
# word. timeout's 124 means it was still running after 1 s.
echo "== checking that the entry refuses server-0.key as its pipe key"
status=0
timeout 1 "$WORK/bin/vuvuzela-entry" -chain "$WORK/deploy/chain.json" \
    -key "$WORK/deploy/server-0.key" >"$WORK/entry-wrong-key.log" 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "== vuvuzela-entry with server-0.key did not exit non-zero within 1 s (status $status):"
    cat "$WORK/entry-wrong-key.log"
    exit 1
fi

echo "== starting shards, servers, entry, frontends"
for i in 0 1; do
    "$WORK/bin/vuvuzela-server" -chain "$WORK/deploy/chain.json" \
        -key "$WORK/deploy/shard-$i.key" -mode shard \
        -round-state "$WORK/deploy/shard-$i.rounds" >"$WORK/shard-$i.log" 2>&1 &
    PIDS+=($!)
done
for i in 2 1 0; do
    "$WORK/bin/vuvuzela-server" -chain "$WORK/deploy/chain.json" \
        -key "$WORK/deploy/server-$i.key" -fixed-noise \
        -round-state "$WORK/deploy/server-$i.rounds" >"$WORK/server-$i.log" 2>&1 &
    PIDS+=($!)
done
"$WORK/bin/vuvuzela-entry" -chain "$WORK/deploy/chain.json" \
    -key "$WORK/deploy/entry.key" \
    -convo-interval 400ms -dial-interval 1s -submit-timeout 300ms \
    -convo-window 2 -round-state "$WORK/deploy/entry.rounds" >"$WORK/entry.log" 2>&1 &
PIDS+=($!)
for i in 0 1; do
    "$WORK/bin/vuvuzela-frontend" -chain "$WORK/deploy/chain.json" \
        -index "$i" >"$WORK/frontend-$i.log" 2>&1 &
    PIDS+=($!)
done

sleep 1
for pid in "${PIDS[@]}"; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "== a process died during startup; logs:"
        tail -n 20 "$WORK"/*.log
        exit 1
    fi
done

echo "== running smoke driver"
if ! "$WORK/bin/smoke" -chain "$WORK/deploy/chain.json" \
    -alice "$WORK/deploy/alice.key" -bob "$WORK/deploy/bob.key" -timeout 90s; then
    echo "== smoke failed; process logs:"
    tail -n 30 "$WORK"/*.log
    exit 1
fi
echo "== example smoke passed"
