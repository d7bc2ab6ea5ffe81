#!/usr/bin/env bash
# Builds the benchmark and the witrack-svc daemon from this checkout's
# sources, then runs one benchmark workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sim-fast --seed 1 --seconds 10 --trace 0
#
# Build caches, binaries and span files stay under .bench_build/ in the
# checkout. Build output goes to stderr; the last line of stdout is the
# JSON result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin"
# Every cache and config the go command would keep in the home directory
# (build cache, module cache, telemetry) lives in the checkout instead.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(
  cd "$root/perfbench"
  go build -o "$out/bin/perfbench" .
  go build -o "$out/bin/witrack-svc" witrack/cmd/witrack-svc
) >&2

exec "$out/bin/perfbench" -svc "$out/bin/witrack-svc" -out "$out" "$@"
