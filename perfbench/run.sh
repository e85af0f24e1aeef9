#!/usr/bin/env bash
# Builds the mcmsim benchmark from the source of the checkout it is run in
# and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, traced runs' profiles and span files) stays under .bench_build/.
# Outside a full checkout the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export PPROF_TMPDIR="$build/pprof"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
