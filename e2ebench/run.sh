#!/usr/bin/env bash
# Builds the programs under test and the load generator from this checkout,
# then runs one workload:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build caches, binaries and run scratch space all live under .bench_build.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/serve" ]; then
	echo "e2ebench: run from the repository root (no go.mod or cmd/serve here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off
go build -o "$build/bin/" ./cmd/serve ./cmd/armine ./cmd/tracegen
go -C e2ebench build -o "$build/bin/e2ebench" .
exec "$build/bin/e2ebench" -root "$root" "$@"
