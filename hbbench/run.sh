#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash hbbench/run.sh --workload <beat-local|relay-hot|fleet-rollup> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (the Go build cache, temporary files, the binary, shared-memory regions)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOENV=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/hbbench" .) >&2
exec "$out/hbbench" "$@"
