# Developer targets. `make verify` is the tier-1 gate (see ROADMAP.md).

GO ?= go

.PHONY: build test vet race verify chaos chaos-restart restore-soak suites-check suites-golden chaos-net fuzz-smoke bench bench-check mem-gate exec-gate read-gate perf examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l prints:"; echo "$$out"; exit 1; }
	@out=$$(grep -ohE '`make [^`]*`' README.md DESIGN.md docs/*.md $$(find .claude/skills -name '*.md' 2>/dev/null) \
		| tr -d '`' | tr ' ' '\n' | grep -vE '^(make|-.*|.*=.*)?$$' | sort -u \
		| while read -r t; do grep -qE "^$$t:" Makefile || echo "$$t"; done); \
	[ -z "$$out" ] || { echo "the docs name make targets the Makefile does not define:"; echo "$$out"; exit 1; }

# The simulation substrate is single-threaded by design, but the experiment
# sweeps (internal/exp) run whole worlds in parallel goroutines — the race
# detector covers that boundary.
race:
	$(GO) test -race ./internal/...

verify: vet build test race

# The three suites below select their tests by name, so a rename can drop
# a test from a suite without anyone deciding it should: testdata/suites/
# holds each suite's selection as a committed list, `make suites-check`
# (CI) fails when a selection is no longer its list, and `make
# suites-golden` rewrites the lists when the change was meant.
CHAOS_RUN         = Chaos|Campaign|Fault|Retr|Requeue|Recover|NodeDies
CHAOS_RESTART_RUN = Ckpt|Checkpoint|Snapshot|Restore|Supervisor|OrchestratorKill|StopIdempotent|Sanitize
RESTORE_SOAK_RUN  = Restore|KillRestart|TerminalRunsEvicted
RESTORE_SOAK_SKIP = TornTailEveryByte

# suite-list prints the tests of packages $(2) that pattern $(1) selects
# (minus those matching $(3)), as package:Test lines.
define suite-list
$(GO) test -json -list '$(1)' $(2) \
	| sed -n 's/.*"Package":"\([^"]*\)".*"Output":"\(Test[^\\]*\)\\n".*/\1:\2/p' \
	| grep -v -E ':.*($(if $(3),$(3),^$$))' | sort
endef

define suites
	@mkdir -p testdata/suites
	@$(call suite-list,$(CHAOS_RUN),./internal/...) | $(1) testdata/suites/chaos.txt $(2)
	@$(call suite-list,$(CHAOS_RESTART_RUN),./internal/...) | $(1) testdata/suites/chaos-restart.txt $(2)
	@$(call suite-list,$(RESTORE_SOAK_RUN),./internal/server/,$(RESTORE_SOAK_SKIP)) | $(1) testdata/suites/restore-soak.txt $(2)
endef

suites-check:
	$(call suites,diff -u,-)
	@echo "suites-check: chaos, chaos-restart and restore-soak select what testdata/suites/ lists"

suites-golden:
	$(call suites,tee,>/dev/null)

# The fault-injection suite (DESIGN.md §10): seeded kill/heal campaigns,
# flaky carves, retry/requeue recovery — under the race detector.
chaos:
	$(GO) test -race -run '$(CHAOS_RUN)' ./internal/...

# Crash-safety suite (DESIGN.md §12, docs/RECOVERY.md): checkpoint/restore
# round-trips, the orchestrator-kill campaign with its golden determinism
# check, and stage-supervisor panic/stall recovery — under the race
# detector.
chaos-restart:
	$(GO) test -race -run '$(CHAOS_RESTART_RUN)' ./internal/...

# The coordinator's kill/restart tests ten times over, non-race, a few
# seconds: a restore test that fails one run in three (as
# TestJournalSizeTriggeredSnapshot did for two PRs) shows up here instead
# of as an unlucky tier-1 run. TestRestoreTornTailEveryByte is left to the
# suites above: it has no timing in it and is 5 000 restarts on its own.
restore-soak:
	$(GO) test -count=10 -run '$(RESTORE_SOAK_RUN)' -skip '$(RESTORE_SOAK_SKIP)' ./internal/server/

# The network-fault drills on their own, under the race detector (`make
# verify` runs them too; docs/SERVICE.md, "Surviving network faults"): five
# seeded fault schedules — each emphasizing a different mode (latency,
# drops, 5xx, truncation, lost replies) — injected into a 3-worker fleet's
# every RPC, asserting zero lost runs, exactly one terminal state per run
# and a throughput floor; then a mid-run outbound partition shorter than
# the lease TTL that must complete without a requeue.
chaos-net:
	$(GO) test -race -count=1 -run 'TestChaosNet' ./internal/server/loadgen/

# Every fuzz target under internal/ for five seconds each, beyond the seed
# corpus `go test` already runs: a short search for a new input, not a
# campaign. Targets are listed with `go test -list`, so a new Fuzz* function
# is picked up without touching this rule; an input that fails is written to
# its package's testdata/fuzz/ as `go test -fuzz` does.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./internal/...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 5s $$pkg; \
		done; \
	done

# Every micro-benchmark in the tree, as plain `go test -bench` output: the
# observability hot paths, the DES kernel (DESIGN.md §14), the bus, the
# staging fan-out, DISKSCAN polls, the end-to-end worlds, the run-history
# store, the arbiter and the coordinator's read path. Numbers that are kept
# and compared live in bench/ (`make perf`), not here.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

# bench/ is its own module (`replace dyflow => ../`), so `go build ./...` and
# `go test ./...` at the root never compile it: this is the gate that an
# internal API change has not broken the campaign-service benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# A ledger gate: a 3-second pass of workload $(2) must pass its output check
# and end with metric $(3) below $(4) MB. The gated metrics repeat to a
# fraction of a percent from run to run, so these are gates, not trends.
define ledger-gate
	@out=$$(bash bench/run.sh $(2) -seconds 3 -trace 0 | tail -n 1); echo "$$out"; \
	echo "$$out" | grep -q '"correct":true' || { echo "$(1): the pass did not end correct:true"; exit 1; }; \
	v=$$(echo "$$out" | sed -n 's/.*"$(3)":{"value":\([0-9.e+-]*\).*/\1/p'); \
	awk -v v="$$v" 'BEGIN { if (v == "" || v + 0 >= $(4)) { print "$(1): $(3) = " v " MB, want < $(4)"; exit 1 } \
		print "$(1): $(3) = " v " MB (< $(4))" }'
endef

# A finished run costs its record and its blobs, nothing else (DESIGN.md
# §14, "World lifecycle"): svc-light — some 850 quickstart worlds — ends
# with 3.0 MB of live heap; with finished worlds retained it ended with
# 112 MB.
mem-gate:
	$(call ledger-gate,mem-gate,svc-light,live_heap_mb,16)

# The in-process worker never grows a wire (docs/SERVICE.md, "Workers"):
# `-workers N` calls the coordinator's worker API as plain methods, and a
# quickstart run through it allocated 0.618 MB — what the worker pool it
# replaced allocated — and 0.504 MB since PR 25 cut the world's Monitor
# allocations. Reaching the same handlers through an in-process
# http.RoundTripper (requests, JSON both ways) read 0.665 MB.
exec-gate:
	$(call ledger-gate,exec-gate,svc-light,alloc_mb_per_run,0.63)

# A read costs what it returns (docs/SERVICE.md, "Querying run history"):
# history-query — cached submits beside filtered list pages, evicted-run
# status, artifact and analytics reads over a 10 000-run durable history —
# allocates 0.79 MB per script step; when every listed run was read back
# from disk and JSON-decoded it allocated 2.58 MB.
read-gate:
	$(call ledger-gate,read-gate,history-query,alloc_mb_per_run,1.5)

# The campaign-service benchmark itself (BENCHMARK.json, bench/README.md):
# all four workloads, non-race, end-to-end metrics into bench/out/.
perf:
	bash bench/run.sh all

# Build every example and run the quickstart end-to-end (CI smoke).
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
