#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash fkbench/run.sh --workload paper-rw --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the Go settings the
# build would otherwise write and the binary all stay in .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off

(cd "$root/fkbench" && go build -o "$out/fkbench" .)
exec "$out/fkbench" "$@"
