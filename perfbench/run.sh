#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -buildvcs=false -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
