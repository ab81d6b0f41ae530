#!/usr/bin/env bash
# Builds the benchmark once (non-race) and runs it from the checkout root.
#
#   bench/run.sh all [flags]              every workload, one process each
#   bench/run.sh <workload> [flags]       one workload
#   bench/run.sh --workload <w> ...       flags passed straight through (the driver's form)
#
# Flags: -seed N, -seconds N, -trace 0|1, -selfcheck. Results land in
# bench/out/<workload>.json (-trace 1: <workload>.layers.json and
# <workload>.trace.json). Everything the build and the runs write stays
# inside the checkout: the Go caches go to .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local

bin=$build/dyflow-bench
# HOME: the go command keeps GOPATH and its telemetry counters under it.
HOME=$build/home go -C "$root/bench" build -o "$bin" .

cd "$root"
case "${1:-}" in
all)
	shift
	for w in svc-light des-heavy fleet-durable history-query; do
		"$bin" -workload "$w" "$@"
	done
	;;
"" | -*)
	exec "$bin" "$@"
	;;
*)
	w=$1
	shift
	exec "$bin" -workload "$w" "$@"
	;;
esac
