#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's source and runs it
# with the given arguments, for example:
#
#   bash perfbench/run.sh --workload fanin_classic --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Run it from the repository root. Everything the build writes (Go's
# build cache, temporary files and telemetry, the binary) stays under
# .bench_build/perfbench; the toolchain is the local one and module
# downloads are off, so the build never leaves the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
