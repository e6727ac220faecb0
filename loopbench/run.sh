#!/usr/bin/env bash
# Builds loopbench from this checkout and runs it with the given flags:
#   bash loopbench/run.sh --workload analyst --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The build cache, the binary, temporary
# build files and the go command's own configuration (telemetry counters)
# stay under .bench_build in the working directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
