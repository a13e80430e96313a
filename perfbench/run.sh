#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload paper-local40 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build cache,
# temp files, serve journals) stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
