#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments go to the benchmark:
#
#   bash e2ebench/run.sh --workload serve-100k --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and generated inputs stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (need go.mod and e2ebench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out/e2ebench-run" "$@"
