#!/usr/bin/env bash
# Builds cmd/filter-server and the load generator from the checkout in the
# current directory, then runs one workload, passing every argument on:
#
#   bash loadbench/run.sh --workload probe-small --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
# Fall back to the official installer's default location when go is not
# on PATH (as under a minimal environment).
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
root=$PWD
out=$root/.bench_build/loadbench
if [[ ! -f go.mod || ! -d cmd/filter-server ]]; then
	echo "loadbench: run from the root of a perfilter checkout (no go.mod or cmd/filter-server here)" >&2
	exit 1
fi
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command forks a detached upload process
# that outlives the build.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -buildvcs=false -o "$out/filter-server" ./cmd/filter-server >&2
(cd "$root/loadbench" && go build -buildvcs=false -o "$out/loadbench" .) >&2
exec "$out/loadbench" -server "$out/filter-server" -out "$out" "$@"
