#!/usr/bin/env bash
# Launcher of the repository's benchmark (BENCHMARK.json's command): builds
# the bench module with its build cache inside the checkout, then runs it
# from the checkout root. Everything it writes lands in .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/vuvuzela-bench" .)
cd "$root"
exec "$build/vuvuzela-bench" "$@"
