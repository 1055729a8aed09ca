#!/usr/bin/env bash
# Generates the examples/chain deployment material into ./deploy:
# a 3-server + 2-shard chain descriptor, per-process key files, and two
# user identities. Noise parameters are scaled far below the paper's
# production values (µ=300,000) so the example runs instantly on a
# laptop; see docs/THREAT_MODEL.md before shrinking noise in a real
# deployment.
set -euo pipefail
cd "$(dirname "$0")"
REPO=../..
OUT=${OUT:-deploy}
BASE_PORT=${BASE_PORT:-2719}

go build -o "$OUT/bin/" "$REPO/cmd/vuvuzela-keygen" "$REPO/cmd/vuvuzela-server" \
    "$REPO/cmd/vuvuzela-entry" "$REPO/cmd/vuvuzela-frontend" "$REPO/cmd/vuvuzela-client"

"$OUT/bin/vuvuzela-keygen" chain -servers 3 -shards 2 -frontends 2 -out "$OUT" \
    -base-port "$BASE_PORT" -mu 20 -b 5 -dial-mu 5 -dial-b 2
"$OUT/bin/vuvuzela-keygen" user -name alice -out "$OUT"
"$OUT/bin/vuvuzela-keygen" user -name bob -out "$OUT"

echo
echo "Generated $OUT/. Start the deployment (each line its own terminal, any order):"
echo "  ./run-server.sh shard-0   # dead-drop shard 0"
echo "  ./run-server.sh shard-1   # dead-drop shard 1"
echo "  ./run-server.sh server-2  # last server (shard router + CDN)"
echo "  ./run-server.sh server-1  # middle server"
echo "  ./run-server.sh server-0  # first server (entry leg)"
echo "  ./run-entry.sh            # entry server (round timers + frontend pipes)"
echo "  ./run-frontend.sh 0       # stateless entry frontend 0"
echo "  ./run-frontend.sh 1       # stateless entry frontend 1"
echo "then talk (clients connect through the frontends; see chain.json):"
echo "  $OUT/bin/vuvuzela-client -chain $OUT/chain.json -key $OUT/alice.key -users $OUT/users.json"
