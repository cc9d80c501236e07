#!/usr/bin/env bash
# Builds mqo-serve and the benchmark program from the source tree it is
# run in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and trace file lands under .bench_build/
# in the current directory, so the run reads and writes nothing outside
# the tree.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

# With telemetry on, the first go command in a fresh config directory
# starts a detached upload process that can outlive this script. Turning
# it off first (a command that itself starts no such process) keeps every
# process of the run inside the run.
go telemetry off
go build -o "$out/bin/mqo-serve" ./cmd/mqo-serve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve "$out/bin/mqo-serve" -out "$out" "$@"
