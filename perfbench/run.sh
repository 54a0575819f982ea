#!/usr/bin/env bash
# Builds the programs under test (cmd/experiments, cmd/edcached) and the
# benchmark harness from source, then runs one workload:
#
#   bash perfbench/run.sh --workload sweep|trace|service-cold|service-warm --seed N \
#        --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds, generates or
# caches stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
# Without the program's source there is nothing to build or measure; fail
# before the toolchain starts anything.
for src in go.mod cmd/experiments cmd/edcached; do
  if [ ! -e "$root/$src" ]; then
    echo "perfbench: $src not found; run from a checkout of the repository" >&2
    exit 2
  fi
done
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/work"

# Keep the toolchain's caches and temporaries inside the checkout and
# never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/tmp" GOPATH="$out/gopath"
# The go command otherwise starts a detached telemetry child that can
# outlive this script; the mode lives under XDG_CONFIG_HOME set above.
go telemetry off >/dev/null 2>&1 || true

go build -o "$out/bin/" ./cmd/experiments ./cmd/edcached >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
