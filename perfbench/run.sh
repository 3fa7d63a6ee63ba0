#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build, its Go cache and the
# run's scratch stores stay under .bench_build/ in that root; nothing is
# downloaded. See perfbench/BENCHMARK.md.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Everything the go command writes, including its per-user config and
# telemetry directory, stays under .bench_build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -buildvcs=false -o "$build/perfbench" .)

PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$build/perfbench" "$@"
