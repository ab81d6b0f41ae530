#!/usr/bin/env bash
# Writes the on-disk run-history fixtures that TestRestoreShippedFormats
# restores: one directory per commit named below, each holding the runs/ and
# blobs/ trees that commit's dyflow-serve left behind after a kill -9.
#
# Each commit is extracted from this repository's own objects (git archive,
# no network) and built into a scratch directory. Its server is driven in two
# lives, both ended by kill -9:
#
#   1. -workers 1: alice runs quickstart/summit seed 1 to done, bob resubmits
#      it (a cache hit), alice runs quickstart/dt2 seed 3 with an XML override
#      to done.
#   2. -workers -1 (nothing executes): alice submits seed 4 (left queued),
#      carol submits seed 5 and cancels it, bob submits seed 6 with the XML
#      override (left queued).
#
# Then the expected bodies are recorded by the current checkout's test:
#
#   go test ./internal/server -run TestRestoreShippedFormats -args -update-shipped
#
# Usage: internal/server/testdata/shipped/generate.sh [commit ...]
# Scratch space comes from mktemp, so TMPDIR chooses where it goes.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
commits=("$@")
[ ${#commits[@]} -gt 0 ] || commits=(805298f 11db59b 9bd3de6)

work=$(mktemp -d)
pid=
cleanup() {
	[ -z "$pid" ] || kill -9 "$pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

xml='<dyflow><monitor/><decision/><arbitration/></dyflow>'

# start <binary> <state dir> <workers>: runs the server in the background and
# sets $pid and $base once it is listening.
start() {
	"$1" -addr 127.0.0.1:0 -workers "$3" -tenant-quota -1 -ckpt-dir "$2" >"$work/serve.log" 2>&1 &
	pid=$!
	for _ in $(seq 100); do
		base=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$work/serve.log")
		[ -n "$base" ] && return 0
		sleep 0.1
	done
	echo "server did not start:" >&2
	cat "$work/serve.log" >&2
	exit 1
}

stop() {
	kill -9 "$pid"
	wait "$pid" 2>/dev/null || true
	pid=
}

# submit <tenant> <machine> <seed> [xml]: prints the new run's ID.
submit() {
	jq -cn --arg t "$1" --arg m "$2" --argjson s "$3" --arg x "${4:-}" \
		'{tenant: $t, scenario: "quickstart", machine: $m, seed: $s} + (if $x == "" then {} else {xml: $x} end)' |
		curl -sf -X POST "$base/v1/runs" -d @- | jq -r .id
}

# await <id> <state>: waits until the run reports that state.
await() {
	for _ in $(seq 300); do
		[ "$(curl -sf "$base/v1/runs/$1" | jq -r .state)" = "$2" ] && return 0
		sleep 0.1
	done
	echo "run $1 never reached $2" >&2
	exit 1
}

for c in "${commits[@]}"; do
	src="$work/src-$c"
	state="$work/state-$c"
	mkdir -p "$src" "$state"
	git -C "$root" archive "$c" | tar -x -C "$src"
	(cd "$src" && go build -o "$work/serve-$c" ./cmd/dyflow-serve)

	start "$work/serve-$c" "$state" 1
	id=$(submit alice summit 1)
	await "$id" done
	id=$(submit bob summit 1)
	await "$id" done
	id=$(submit alice dt2 3 "$xml")
	await "$id" done
	stop

	start "$work/serve-$c" "$state" -1
	id=$(submit alice summit 4)
	await "$id" queued
	id=$(submit carol summit 5)
	curl -sf -X POST "$base/v1/runs/$id/cancel" >/dev/null
	await "$id" canceled
	id=$(submit bob summit 6 "$xml")
	await "$id" queued
	stop

	rm -rf "${here:?}/$c"
	mkdir -p "$here/$c"
	cp -r "$state/runs" "$state/blobs" "$here/$c/"
	echo "$c: $(du -sk "$here/$c" | cut -f1) KB"
done
