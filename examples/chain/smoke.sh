#!/usr/bin/env bash
# CI smoke for the examples/chain deployment (`make example-smoke`):
# builds the real binaries, generates a fresh 3-server + 2-shard +
# 2-frontend config on ephemeral loopback ports, boots every process
# through run-server.sh, run-entry.sh and run-frontend.sh, and runs the
# smoke driver, which connects one client to each frontend, dials one
# user from the other, and exchanges a message each way over the fully
# authenticated chain. Exits non-zero if any process dies or the
# messages do not arrive, or if the entry accepts a key that is not its
# pipe key or vuvuzela-server one that chain.json does not list.
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

# The deployment runs through the same run-*.sh scripts an operator
# copies, pointed at the work directory and faster round timers.
export OUT="$WORK/deploy" CONVO_INTERVAL=400ms DIAL_INTERVAL=1s SUBMIT_TIMEOUT=300ms

echo "== building binaries"
go build -o "$OUT/bin/" ./cmd/vuvuzela-keygen ./cmd/vuvuzela-server ./cmd/vuvuzela-entry ./cmd/vuvuzela-frontend \
    ./examples/chain/smoke

# A port block derived from the PID keeps parallel CI jobs from
# colliding; the deployment needs base-2 .. base+7 (frontend pipe below
# the entry port, frontends above the shards). Staying below 32768
# keeps the block out of the kernel's ephemeral port range, where a
# transient outbound connection could already hold a port.
BASE_PORT=$(( 10000 + ($$ % 2000) * 10 + 2 ))
echo "== generating config (base port $BASE_PORT)"
"$OUT/bin/vuvuzela-keygen" chain -servers 3 -shards 2 -frontends 2 -out "$OUT" \
    -base-port "$BASE_PORT" -mu 20 -b 5 -dial-mu 5 -dial-b 2
"$OUT/bin/vuvuzela-keygen" user -name alice -out "$OUT"
"$OUT/bin/vuvuzela-keygen" user -name bob -out "$OUT"

# Negative rows: a process given a key that is not its own must refuse
# it at once, not run without a word. timeout's 124 means it was still
# running after 1 s.
refuses() {
    local what=$1 status=0
    shift
    echo "== checking that $what"
    timeout 1 "$@" >"$WORK/refusal.log" 2>&1 || status=$?
    if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
        echo "== it did not exit non-zero within 1 s (status $status):"
        cat "$WORK/refusal.log"
        exit 1
    fi
}
refuses "the entry refuses server-0.key as its pipe key" \
    "$OUT/bin/vuvuzela-entry" -chain "$OUT/chain.json" -key "$OUT/server-0.key"
refuses "vuvuzela-server refuses alice.key, which chain.json does not list" \
    "$OUT/bin/vuvuzela-server" -chain "$OUT/chain.json" -key "$OUT/alice.key"

echo "== starting shards, servers, entry, frontends"
for name in shard-0 shard-1 server-2 server-1 server-0; do
    ./examples/chain/run-server.sh "$name" >"$WORK/$name.log" 2>&1 &
    PIDS+=($!)
done
./examples/chain/run-entry.sh >"$WORK/entry.log" 2>&1 &
PIDS+=($!)
for i in 0 1; do
    ./examples/chain/run-frontend.sh "$i" >"$WORK/frontend-$i.log" 2>&1 &
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
if ! "$OUT/bin/smoke" -chain "$OUT/chain.json" \
    -alice "$OUT/alice.key" -bob "$OUT/bob.key" -timeout 90s; then
    echo "== smoke failed; process logs:"
    tail -n 30 "$WORK"/*.log
    exit 1
fi
echo "== example smoke passed"
