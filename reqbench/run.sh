#!/usr/bin/env bash
# Builds fepiad and the request-level benchmark from this checkout and
# runs one benchmark run; every argument is passed to reqbench (see
# reqbench/main.go). Run it from the repository root:
#
#   bash reqbench/run.sh --workload analyze-wide-warm --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache (and the go command's config and
# telemetry files), the child's log and the run report all stay under
# .bench_build/reqbench in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/reqbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config" "$out/gopath"

(
	cd "$here"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
	go build -o "$out/bin/" fepia/cmd/fepiad .
) >&2

exec "$out/bin/reqbench" -fepiad "$out/bin/fepiad" -out "$out" "$@"
