#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload cold-compile --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --compare runsA runsB
#
# Run it from the repository root. Every build artifact, the Go build
# cache included, lives under .bench_build so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

(cd "$root/benchmark" && go build -o "$out/placebench" .)
exec "$out/placebench" "$@"
