#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it lives in, then
# runs it with the given arguments. The binary, the Go build cache and
# the traced runs' span logs stay under .bench_build/ in that checkout.
#
# Usage, from the repository root:
#
#   bash perfbench/run.sh --workload epoch-heavy --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# GOPROXY=off: the benchmark needs no module outside the checkout.
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
