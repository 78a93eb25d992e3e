#!/usr/bin/env bash
# Builds the sclload benchmark from the checkout this script lives in and
# runs it with every argument passed through (see bench/README.md):
#
#   bash bench/run.sh --workload owner-fastpath --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files go to $CARGO_TARGET_DIR
# (default .bench_build), relative to the checkout root unless absolute,
# so nothing is written outside the checkout. Without the scl sources
# beside bench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# The go command keeps its cache, module and temporary files, and the
# telemetry counters it writes under the user config directory, here.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/sclload" .)
exec "$out/sclload" "$@"
