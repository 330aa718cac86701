#!/bin/sh
# Repo-wide verification: formatting, build, vet, the schedlint invariant
# gate, the full test suite with shuffled test order, the benchmark
# module's vet and self-check, then the race detector over the packages
# with real concurrency (worker pool, parallel DP fills, exact solver, core
# driver, solver facade). Every `go test` carries a -timeout guard so a
# hung test fails the pipeline instead of wedging it. This is the gate every
# PR runs before merging; ROADMAP.md points here.
set -eux

cd "$(dirname "$0")/.."

# gofmt prints nothing when the tree is formatted; any output is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# schedlint enforces the repo's concurrency/determinism invariants with all
# thirteen analyzers: the dataflow-based concurrency checks (ALGORITHM.md
# sections 9 and 11), the value-flow provers intoverflow, boundsproof and
# escape (section 14), the may-happen-in-parallel provers sharedwrite and
# cancelpoll (section 16), and suppression hygiene — malformed, unknown-check
# and stale //lint:ignore directives are lintdirective findings. Each run
# loads the module once and checks everything, so this one invocation is the
# whole gate: exit 1 on any finding is a hard failure.
go run ./cmd/schedlint ./...

go test -shuffle=on -timeout 10m ./...

# The benchmark is its own module (perfbench/go.mod replaces repro with this
# tree), so neither `go build ./...` nor `go test ./...` above compiles it.
# Vet and self-check it here: a change to the root API that the benchmark
# uses fails this step instead of failing only when the benchmark runs.
(cd perfbench && go vet ./... && go test -timeout 5m ./...)

# Fuzz smoke over both instance parsers: five seconds of random streams each
# against the accept->validate->round-trip invariants of pcmax.FuzzReadText
# and pcmax.FuzzReadJSON (the corpora include near-MaxInt64 values, so the
# Validate overflow caps are exercised). Catches format-grammar regressions
# the fixed test corpus misses.
go test -timeout 5m -run '^$' -fuzz 'FuzzReadText' -fuzztime 5s ./pcmax
go test -timeout 5m -run '^$' -fuzz 'FuzzReadJSON' -fuzztime 5s ./pcmax

# internal/lint rides along in the race pass: its loader and runner fan out
# over the worker pool and must stay clean under the detector.
# internal/trsched joins it: the variant solver shares the configuration
# enumeration with the concurrent fill paths, and ./solver's race run now
# also covers the variant dispatch layer in front of them.
go test -race -timeout 15m ./internal/par ./internal/dp ./internal/exact ./internal/core ./internal/lint ./internal/trsched ./solver

# Dedicated pass over the incremental-solving layer: the session
# differential harness (warm-vs-cold certificates, adversarial mutation
# streams, concurrent mutators and readers on one Session) must hold under
# the race detector.
go test -race -timeout 10m -run 'Session' ./solver

# Dedicated stress pass over the barrier pool: its park/wake, panic and
# cancellation handoffs are the trickiest lock-free code in the tree, so run
# the Barrier suite twice more under the race detector.
go test -race -timeout 5m -count=2 -run 'Barrier' ./internal/par
