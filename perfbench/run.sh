#!/usr/bin/env bash
# Builds the benchmark and the shapesold daemon from the checkout's source,
# then runs one workload. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload counting-batch --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the daemons' data directories all
# live under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
(cd "$root" && go build -o "$out/shapesold" ./cmd/shapesold) >&2
exec "$out/perfbench" -bin "$out" -work "$out/run" "$@"
