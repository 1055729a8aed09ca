# Locks in the tier-1 gate plus the race-detector guarantee: `make check`
# is what CI runs.

GO ?= go

# Pinned versions for the external static-analysis tools. The container
# used for local development has no module network, so `lint` only runs
# them when the binaries are already on PATH; CI installs exactly these
# versions (see .github/workflows/ci.yml) so the pins are enforced there.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# The most non-test Go lines `make loc` may report (ROADMAP aim 2). A PR
# that needs more raises this in its own diff, where a reviewer sees it.
LOC_CEILING = 16295

.PHONY: check vet vuvuzela-vet staticcheck govulncheck lint deadcode build arm64 test race allocs shardtest restart-matrix vtime fuzz bench-smoke bench bench-privacy eval-smoke figures-smoke example-smoke loc loc-check ct clean

check: lint deadcode loc-check build arm64 bench-smoke race allocs shardtest restart-matrix vtime fuzz eval-smoke figures-smoke example-smoke

vet:
	$(GO) vet ./...

# The project's own analysis suite (docs/ANALYZERS.md): plaintext
# transport construction, math/rand in crypto-bearing packages,
# non-constant-time comparisons on secrets, %v/%s on errors where %w is
# required, and godoc coverage — module-wide, test files exempt.
vuvuzela-vet:
	$(GO) run ./cmd/vuvuzela-vet ./...

# External analyzers, skipped with a notice when not installed (the
# local container has no network to fetch them; CI always has them).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# Static checks: go vet, the in-repo vuvuzela-vet suite, and the
# external analyzers when present.
lint: vet vuvuzela-vet staticcheck govulncheck

# Production code is what a binary links (CONTRIBUTING.md): build every
# main package, bench/ and an arm64 server, and fail for each function in
# a non-test file that none of them links and no allowlist entry in
# deadcode_test.go excuses. The file is build-tagged, so `test`, `race`
# and `vet` above never compile it: this target vets and runs it.
deadcode:
	$(GO) vet -tags deadcode .
	$(GO) test -tags deadcode -count=1 -run TestEveryFunctionLinked .

build:
	$(GO) build ./...

# The X25519 kernel's generic field code (internal/crypto/x25519) is the
# only field on every GOARCH but amd64, where the standard library's
# assembly runs instead: vet and build the tree as arm64 so it stays
# compiled and checked.
arm64:
	GOARCH=arm64 $(GO) vet ./internal/crypto/...
	GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The allocation pins (a hop's round at 0 per onion, a steady Send at 0,
# the record layer at 0, ...). The race detector instruments allocations,
# so they sit in `//go:build !race` files that `race` above never
# compiles: of `check`'s targets only this one runs them.
allocs:
	$(GO) test -run 'Allocs' ./internal/...

# The shard fan-out, secure-transport, MITM, and fault-injection suites
# at full depth (the -short race pass above runs them scaled down),
# among them every test of a shard failure failing the round.
shardtest:
	$(GO) test -race -run 'Shard|Fault|Secure|MITM|Degrade' -timeout 5m ./...

# The chain-wide crash/restart matrix and every other durable round-state
# suite at full depth under the race detector: kill/restart of the entry,
# each chain server, and each shard — before a round, mid-round, and
# between pipelined rounds — plus the no-persistence replay controls, and
# a real client rejoining on its own after its entry or frontend restarts
# or its connection is cut.
restart-matrix:
	$(GO) test -race -run 'Restart|Rejoin|RoundState|Reissues' -timeout 5m ./...

# The suites in virtual time (internal/sim/vtime_test.go): each runs in a
# testing/synctest bubble, whose clock jumps ahead whenever every goroutine
# in it is blocked. Go 1.24 compiles synctest only under
# GOEXPERIMENT=synctest, so the file is build-tagged and `test`, `race` and
# `vet` above never compile it: this target vets and runs it.
vtime:
	GOEXPERIMENT=synctest $(GO) vet ./internal/sim
	GOEXPERIMENT=synctest $(GO) test -race -run VTime ./...

# Short coverage-guided smoke over the authenticated-transport parsers,
# the round-state loaders and torn slot writes, the X25519 kernel's ladder
# and comb, single and batched, against crypto/ecdh, and both directions
# of the onion (each target also runs its seed corpus in every plain
# `go test`).
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzSecureHandshakeServer$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzSecureHandshakeClient$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzSecureRecordTamper$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzCheckFrontBatch$$' -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz 'FuzzCheckFrontReplies$$' -fuzztime 10s
	$(GO) test ./internal/roundstate -run '^$$' -fuzz 'FuzzRoundStateLoad$$' -fuzztime 10s
	$(GO) test ./internal/roundstate -run '^$$' -fuzz 'FuzzSlotTear$$' -fuzztime 10s
	$(GO) test ./internal/crypto/box -run '^$$' -fuzz 'FuzzOpenInto$$' -fuzztime 10s
	$(GO) test ./internal/crypto/x25519 -run '^$$' -fuzz 'FuzzComb$$' -fuzztime 10s
	$(GO) test ./internal/onion -run '^$$' -fuzz 'FuzzUnwrapLayer$$' -fuzztime 10s
	$(GO) test ./internal/onion -run '^$$' -fuzz 'FuzzPathSeal$$' -fuzztime 10s

# The repository's benchmark (bench/, BENCHMARK.json) is its own module,
# so `go build ./...`, `go test ./...` and `vuvuzela-vet ./...` above never
# compile it: without this an API break in box/onion/mixnet/transport
# stays invisible until the benchmark pipeline runs. Vet, the smoke-size
# run of every workload, and the project analyzers over the bench module.
# GOMAXPROCS=1 for the tests only: the smoke asserts that trace spans tile
# 2–3 ms rounds within ±5 %, which cross-core scheduling jitter breaks in
# about half the runs on a 2-vCPU box and about one in fourteen on one P.
bench-smoke:
	cd bench && $(GO) vet . && GOMAXPROCS=1 $(GO) test . && $(GO) run vuvuzela/cmd/vuvuzela-vet .

# Boots the examples/chain deployment (3 servers + 2 shards + entry, all
# real processes on loopback TCP) and exchanges a message through it,
# then runs each in-process example on the public facade, each of which
# must exit 0 (about 3 s together).
example-smoke:
	./examples/chain/smoke.sh
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dialing
	$(GO) run ./examples/privacy-budget
	$(GO) run ./examples/traffic-analysis

# The constant-time gate (docs/THREAT_MODEL.md §2): a dudect-style Welch-t
# test of x25519.Ladder and x25519.MulBatch on their IFMA kernels and on
# their scalar code — fixed versus random scalars, zero versus random
# points, and comb groups on the generator's table and on a peer's — with
# a positive control for each that must be detected. It measures wall time
# (about 70 s), so it is build-tagged out of `test` and is no part of
# `check` or CI.
ct:
	$(GO) vet -tags ct ./internal/crypto/x25519
	$(GO) test -tags ct -count=1 -run TestConstantTime -v ./internal/crypto/x25519

# Short benchmark pass over the scalability-critical paths and the secure
# record layer (MB/s and allocs/record).
bench:
	$(GO) test -run NONE -bench 'PipelinedRounds|ServiceProcess|SecureRecord' -benchtime 3x ./...

# Traffic-analysis evaluation: empirical two-world adversary advantage
# (compromised servers and wire observer, across churn/restart/mixed-load
# scenarios) against the (ε,δ) accounting, regenerating BENCH_privacy.json
# (eval-smoke is the -quick form of the same command, at CI depth).
bench-privacy:
	$(GO) run ./cmd/vuvuzela-bench -json BENCH_privacy.json privacy

eval-smoke:
	$(GO) run ./cmd/vuvuzela-bench -quick privacy

# The measured paper figures (Figs. 9–11: real rounds at the head of a
# fresh sim.ChainNet per point) at a CI-sized 1/20000 of the paper's
# users and noise, beside the model's paper-scale series.
figures-smoke:
	$(GO) run ./cmd/vuvuzela-bench -measure -scale 20000 fig9 fig10 fig11

# Non-test Go lines outside the benchmark module: the number ROADMAP's
# aim 2 ("net non-test LOC goes down") and each CHANGES.md entry quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l

loc-check:
	@n=$$($(MAKE) -s loc); if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "make loc = $$n exceeds LOC_CEILING = $(LOC_CEILING): delete code, or raise the ceiling in this diff"; exit 1; \
	else echo "make loc = $$n (ceiling $(LOC_CEILING))"; fi

clean:
	$(GO) clean ./...

# Expose the pins so CI installs exactly the versions this file names.
.PHONY: print-staticcheck-version print-govulncheck-version
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)
print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)
