#!/usr/bin/env bash
# Builds the host-time benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload node --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under .bench_build/ at the checkout root.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0 \
		go build -trimpath -o "$out/camc-perfbench" .
) >&2
exec "$out/camc-perfbench" -root "$root" "$@"
