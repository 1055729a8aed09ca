#!/usr/bin/env bash
# Runs dead-drop shard $1 of the examples/chain deployment. The
# -round-state file makes the shard's replay protection survive
# restarts: kill it mid-run and start it again — it rejoins the chain
# at the round it left off, and stale-round replays still abort.
set -euo pipefail
cd "$(dirname "$0")"
i=${1:?usage: run-shard.sh INDEX}
exec "${OUT:-deploy}/bin/vuvuzela-server" \
    -chain "${OUT:-deploy}/chain.json" \
    -key "${OUT:-deploy}/shard-$i.key" \
    -mode shard \
    -round-state "${OUT:-deploy}/shard-$i.rounds"
