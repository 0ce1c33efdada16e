#!/usr/bin/env bash
# Builds the sweep daemon and the benchmark from this checkout's sources
# into .bench_build/, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rfsimd" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root; go.mod, cmd/rfsimd or internal/ is missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -o "$out/rfsimd" ./cmd/rfsimd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -rfsimd "$out/rfsimd" -out "$out" "$@"
