#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it:
#
#   bash e2ebench/run.sh --workload grococa-n100 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' spans stay under $CARGO_TARGET_DIR (default .bench_build);
# the Go toolchain's own state goes there too, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$out" "$@"
