#!/usr/bin/env bash
# Builds the benchmark runner from the checkout it is started in and runs it
# with the given arguments:
#
#   bash perfbench/run.sh --workload replay-scale --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' Chrome trace files all go under .bench_build/ in that root, so
# nothing is written outside the checkout, and nothing is read outside it but
# the Go toolchain and /proc/cpuinfo (for the environment block).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=
commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --out "$out" "$@"
