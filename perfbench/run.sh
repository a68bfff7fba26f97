#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload; every argument is passed on (see README.md):
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary files, work directories and traces all stay
# under .bench_build in the directory it is started from, which must be
# the root of the repository.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
