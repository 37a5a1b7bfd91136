#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload f3m-8k --seed 1 --seconds 35 --trace 0
#
# The build output, the Go build cache, temporary files and the span
# dumps all stay inside the checkout, under $CARGO_TARGET_DIR (default
# .bench_build). The build needs no network: the benchmark module
# requires only the repository module, replaced by its directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
