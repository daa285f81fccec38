#!/usr/bin/env bash
# Builds inca-serve and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, server state, traces.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/inca-serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an inca checkout (cmd/inca-serve not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The commit goes into the result's machine fingerprint; a checkout
# without git history reports it as unknown.
commit=$(git rev-parse HEAD 2>/dev/null) || commit="unknown (not a git checkout)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="$commit+modified"
fi

go build -o "$out/inca-serve" ./cmd/inca-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve-bin "$out/inca-serve" -work "$out/work" -commit "$commit" "$@"
