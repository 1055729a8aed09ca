#!/usr/bin/env bash
# Runs the server of the examples/chain deployment that key file $1
# names: server-<i> is chain server i (0-based; the highest position is
# the last server, which routes the dead-drop exchange to the shard
# servers and hosts the invitation CDN) and shard-<i> dead-drop shard i,
# because a key's place in chain.json is its process's role. The
# -round-state file makes the process's replay protection survive
# restarts: kill it mid-run and start it again — it rejoins the chain
# at the round it left off, and stale-round replays still abort.
set -euo pipefail
cd "$(dirname "$0")"
name=${1:?usage: run-server.sh server-INDEX|shard-INDEX}
exec "${OUT:-deploy}/bin/vuvuzela-server" \
    -chain "${OUT:-deploy}/chain.json" \
    -key "${OUT:-deploy}/$name.key" \
    -round-state "${OUT:-deploy}/$name.rounds"
