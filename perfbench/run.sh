#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload persite-4096 --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare <parent-dir> <change-dir>
#
# Run it from the repository root. Everything the build and the runs write
# (Go build cache, binary, checkpoint directories, spans) stays under
# .bench_build/ in that directory. The binary is built with -tags avx2; its
# records state whether the AVX2 kernels are active on the running CPU.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -tags avx2 -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
