#!/usr/bin/env bash
# Builds the benchmark against the enclosing checkout and runs it:
#
#   bash lphbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ there (Go's build cache included), and
# the build works offline: the only modules are this one and the
# repository it replaces in from the parent directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/lphbench/go.mod" ]]; then
	echo "lphbench: run from the root of the repository checkout" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "lphbench: no repository source next to the benchmark (missing go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd "$root/lphbench" && go build -o "$out/lphbench" .)
exec "$out/lphbench" --root "$root" "$@"
