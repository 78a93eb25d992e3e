# Tier-1 gate: everything must build, vet clean, pass tests with the race
# detector on (including the scldebug invariant-checked build of the lock
# package), and carry no review scaffolding in production code. CI and
# pre-commit both run `make check`.

GO ?= go

.PHONY: check build build-matrix fmt-check vet test race race-debug bench-module bench-smoke review-gate docs-check check-explore scenarios bench bench-all

check: build build-matrix fmt-check vet race race-debug bench-module bench-smoke review-gate docs-check

build:
	$(GO) build ./...

# Both sides of the scldebug build matrix: the release build (invariant
# assertions compiled away, scldebug_off.go) and the debug build (live
# panics, scldebug_on.go) must always compile. Catches assertions that
# reference release-stripped symbols and vice versa.
build-matrix:
	$(GO) build ./...
	$(GO) build -tags scldebug ./...
	$(GO) vet -tags scldebug ./...

# Every Go file must be gofmt-clean; the target lists the ones that are not.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The simulator's fairness acceptance tests (sim: TestRWSCLRatioNineToOne
# and friends) take ~13 minutes under the race detector on a loaded
# machine, past go test's default 10-minute per-package timeout — give
# every package generous headroom; a genuine hang still fails.
race:
	$(GO) test -race -timeout 30m ./...

# The lock package once more with the scldebug build tag: the internal
# invariant assertions (debugChecks in mutex.go) compile to live panics
# instead of no-ops, so the race suite also proves the invariants hold.
# It runs at one and two Ps, the two branches of the combining
# publisher's wait (combineSpinBudget: park at once, or spin first).
# The CI-sized schedule exploration follows under the same tag, so every
# explored schedule also runs the locks' mid-flight assertions
# (checkFlipLocked at each RW phase flip, debugCheckBooks at each
# unregistration).
race-debug:
	$(GO) test -race -tags scldebug -cpu 1,2 .
	$(GO) test -race -tags scldebug -short ./internal/check/...

# The end-to-end benchmark (bench/, its own module) under the race
# detector: its smoke test runs sclload's correctness gate against every
# workload — mutual-exclusion probes, exactly-once Do, CheckInvariants on
# every lock — so the gate covers the real locks' release paths end to end.
bench-module:
	cd bench && $(GO) test -race ./...

# One iteration of each layer benchmark in internal/core and
# internal/metrics (the cost ledger's accountant and reservoir rows) and
# of the root package's Manager benchmarks (the key-churn path included),
# so they keep compiling and running between `make bench` recordings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/core ./internal/metrics
	$(GO) test -run '^$$' -bench '^BenchmarkManager' -benchtime 1x .

# Review scaffolding (REVIEW-marked probes, temporary assertions) may live
# in test files only; fail the gate if any marker leaks into production
# code, as the PR 2 Gosched loop in Unlock once did.
review-gate:
	@! grep -rn --include='*.go' --exclude='*_test.go' 'REVIEW' . \
		|| { echo 'review-gate: REVIEW marker in non-test Go file'; exit 1; }

# Documentation gate: every exported identifier in the public packages
# (scl, lockstat, trace, export) must carry a doc comment, and the
# top-level markdown files must not contain dead relative links.
docs-check:
	$(GO) run ./cmd/doclint

# The scenario corpus on both sides of the scldebug build matrix
# (short mode: deterministic substrates only), then the corpus-wide
# sim-vs-real differential oracle via cmd/sclscenario. Failures print
# the scenario seed; replay with
# `go run ./cmd/sclscenario -mode replay -scenario <name> -seed N`.
scenarios:
	$(GO) test -short -count=1 ./internal/scenario/...
	$(GO) test -short -count=1 -tags scldebug ./internal/scenario/...
	$(GO) run ./cmd/sclscenario -mode oracle

# Not part of the gate: the real-lock benchmarks (fast path, contention,
# sync-primitive baselines) plus the scenario-corpus benchmarks
# (BenchmarkScenario*, which carry grants/op and jain-hold metrics), and
# the cost ledger's layer benchmarks, internal/core and internal/metrics
# included.
# Each run is appended to BENCH_scl.json by cmd/benchjson, growing a
# benchstat-compatible performance trajectory whose first entry is the
# pre-fast-path baseline. The corpus gate (`scenarios`) runs first so a
# broken scenario never records numbers.
# -count=5 with a short benchtime: benchjson records each benchmark's
# best sample, so a transient load spike (scheduler-latency noise on a
# shared box) has to hit all five short windows to pollute the record.
# The -volatile set is the handoff-bound ladders — every op includes a
# goroutine park/wake, whose cost is a per-process scheduler regime
# (bimodal at 2.3x for unchanged code on a 1-CPU box) — reported with
# deltas but not gated; judge them with benchstat across trajectory
# runs instead.
bench: scenarios
	$(GO) test -run '^$$' -bench . -benchmem -count=5 -benchtime=0.3s . ./internal/core ./internal/metrics | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_scl.json
	$(GO) run ./cmd/benchjson -compare BENCH_scl.json -volatile 'PingPong|Contended|DoMixed|KSCLTraced|Handoff'

# Deterministic schedule exploration of the real locks (internal/check)
# on a CI-sized budget; `go test ./internal/check` without -short runs
# the full 10k+-schedule acceptance budget. Failures print a seed,
# replayable with `go run ./cmd/sclcheck -mode replay -seed N`.
check-explore:
	$(GO) test -short -count=1 ./internal/check/...

# The full benchmark suite across every package (simulator experiments
# included); slow, and not recorded in the trajectory.
bench-all:
	$(GO) test -bench=. -benchmem ./...
