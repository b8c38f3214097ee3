#!/usr/bin/env bash
# Build roxmark and run it from the root of the checkout.
#
#   benchmark/run.sh                       all four workloads, untraced and traced
#   benchmark/run.sh -seed 2               the same on the hold-out seed
#   benchmark/run.sh -aa 5                 A/A: the benchmark against itself
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run, as BENCHMARK.json's command
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, corpora, scratch state and
# trace files under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "roxmark: $root is not a checkout of the repository (the benchmark builds the engine from source)" >&2
	exit 2
fi
cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
if [ "$cpus" -lt 2 ]; then
	echo "roxmark: $cpus CPU available, need at least 2: refusing to print numbers that cannot be compared" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the toolchain's own files (build cache, work directories, telemetry
# counters) inside the checkout, and never let it reach for the network.
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export GOMAXPROCS=2
(cd "$here" && go build -o "$build/roxmark" ./roxmark)

if commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	export ROXMARK_COMMIT="$commit"
fi
exec "$build/roxmark" --out benchmark/out "$@"
