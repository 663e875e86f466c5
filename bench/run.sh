#!/usr/bin/env bash
# Benchmark entry point named by BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds bench/starbench from source (first call only; later calls find the
# binary up to date) and runs it with the arguments given. Everything the
# build and the run write — Go build cache, temporary files, the binary, the
# trace files — stays inside the checkout, under .bench_build/ and bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $PWD is not a checkout of the repository (no go.mod / internal)" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# The toolchain's own VCS stamping is off: it fails the build when a parent
# directory is a repository git refuses to read. The stamp's commit is linked
# in instead, when this checkout is itself a git work tree.
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
	git diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
fi
go build -ldflags "-X main.commit=$commit" -o "$build/starbench" ./bench/starbench
exec "$build/starbench" "$@"
