#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload live-chan-content --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout. Build output goes to stderr, so the last
# line of stdout is always the benchmark's own JSON result.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
