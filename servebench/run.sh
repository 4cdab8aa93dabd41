#!/usr/bin/env bash
# Builds wispd and the benchmark from this checkout, then runs the
# benchmark with the given arguments.  Run from the repository root:
#
#   bash servebench/run.sh --workload fig8-ssl --seed 1 --seconds 54 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, daemon logs and the result records.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/wispd" ]]; then
	echo "servebench: run from the repository root (no wisp sources here)" >&2
	exit 1
fi
build="$root/.bench_build/servebench"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath" "$build/bin"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

go build -o "$build/bin/" ./cmd/wispd >&2
(cd servebench && go build -o "$build/bin/servebench" .) >&2
exec "$build/bin/servebench" --bin "$build/bin" --work "$build/run" --out "$build/records" "$@"
