#!/usr/bin/env bash
# Builds websliced and the load generator from this checkout's sources,
# then runs one benchmark invocation. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload site-repeat --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches or leaves behind goes under e2ebench/.work.
set -euo pipefail

root="$(pwd)"
bench="$root/e2ebench"
work="$bench/.work"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/websliced" ]; then
	echo "e2ebench: run from the repository root (no cmd/websliced under $root)" >&2
	exit 2
fi

mkdir -p "$work/bin" "$work/tmp" "$work/gocache" "$work/gopath" "$work/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file in
# the checkout too.
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$work/bin/websliced" ./cmd/websliced >&2
(cd "$bench" && go build -o "$work/bin/e2ebench" .) >&2
exec "$work/bin/e2ebench" -root "$root" -websliced "$work/bin/websliced" -work "$work" "$@"
