#!/bin/sh
# Tier-1 verification (see ROADMAP.md), plus static checks and a race
# pass over the concurrency-sensitive packages. Run from the repo root:
#
#     sh scripts/verify.sh
set -eu

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== gofmt -l'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo '== go test ./...'
go test ./...

# The simulator runs each process as a coroutine that Run resumes one at
# a time, and the trace recorder piggybacks on the coroutine switch's
# happens-before edge instead of locking; idle coroutines are pooled
# process-wide behind a mutex and reused by simulations on parallel
# goroutines; the sweep engine fans cells out across a worker pool, and the
# fault-injection plan is consulted from inside parallel experiment
# cells. The race detector proves those happens-before edges are real —
# everywhere, not just in the packages that looked concurrency-sensitive
# when the check was narrower.
# (The bench suite subsamples its most expensive experiment sweeps when
# built with -race — see internal/bench/race_off_test.go; the plain
# pass above keeps full coverage.)
echo '== go test -race ./...'
go test -race -timeout 30m ./...

echo 'verify: OK'
