#!/usr/bin/env bash
# Builds the QPINN benchmark from the checkout this script sits in and runs
# it, passing every argument through (see bench/README.md). Build outputs
# and the Go build cache stay inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS=-mod=readonly \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/qpinn-bench" .)
exec "$out/qpinn-bench" "$@"
