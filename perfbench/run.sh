#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Every build and run artifact (Go build cache, binary,
# chain directories) stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload wiki --seed 1 --seconds 28 --trace 0
#   bash perfbench/run.sh --workload hotcrp --seed 1 --seconds 28 --steady 10
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "${root}/perfbench" && go build -o "${out}/orochi-perfbench" .)
cd "${root}"
exec "${out}/orochi-perfbench" "$@"
