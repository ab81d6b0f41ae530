package core

import (
	"encoding/json"
	"testing"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/core/decision"
	"dyflow/internal/sim"
)

// runPace drives the pace-adaptation world to the horizon, killing the
// orchestrator at killAt (0 = never) and restoring a fresh instance from
// its checkpoint blob in place; rewrite, when set, replaces the blob before
// the restore reads it, and started, when set, sees every orchestrator the
// run starts — the first and a restored one. Returns the orchestrator that
// finished the run.
func runPace(t *testing.T, killAt, horizon time.Duration, rewrite func(blob []byte, o *Orchestrator) []byte, started func(w *world, o *Orchestrator)) *Orchestrator {
	t.Helper()
	w := newWorld(t, 2)
	composePaceWorkflow(t, w)
	o := newPaceOrchestrator(t, w, Options{})
	o.Start()
	if started != nil {
		started(w, o)
	}
	w.s.Spawn("driver", func(p *sim.Proc) {
		if err := w.sv.Launch(p, "WF"); err != nil {
			t.Errorf("launch: %v", err)
		}
	})

	if killAt > 0 {
		// Advance to the kill instant, stepping past it while the arbiter
		// is mid-round (its process stack isn't serializable).
		next := killAt
		for {
			if err := w.s.Run(next); err != nil {
				t.Fatal(err)
			}
			if !o.Arbiter.Busy() {
				break
			}
			next += time.Second
		}
		blob, err := o.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if rewrite != nil {
			blob = rewrite(blob, o)
		}
		o.Detach()
		o.Stop()
		o2 := newPaceOrchestrator(t, w, Options{})
		if err := o2.Restore(blob); err != nil {
			t.Fatal(err)
		}
		o2.Start()
		if started != nil {
			started(w, o2)
		}
		o = o2
	}
	if err := w.s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	return o
}

// An orchestrator killed mid-campaign and restored from its checkpoint must
// converge to the same plan sequence as an uninterrupted run with the same
// seed: the checkpoint captures everything decision-relevant.
func TestCheckpointRestoreDeterminism(t *testing.T) {
	const horizon = 10 * time.Minute
	base := runPace(t, 0, horizon, nil, nil)
	killed := runPace(t, 3*time.Minute, horizon, nil, nil)

	wantRecs, err := json.Marshal(base.Arbiter.Records())
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, err := json.Marshal(killed.Arbiter.Records())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Arbiter.Records()) == 0 {
		t.Fatal("base run produced no plans; the comparison is vacuous")
	}
	if string(wantRecs) != string(gotRecs) {
		t.Fatalf("plan records diverged after kill+restore:\nbase:   %s\nkilled: %s", wantRecs, gotRecs)
	}

	// The suggestion lifecycle converges too (spans restored from the
	// snapshot and continued live).
	wantSpans, _ := json.Marshal(base.Trace.State().Spans)
	gotSpans, _ := json.Marshal(killed.Trace.State().Spans)
	if string(wantSpans) != string(gotSpans) {
		t.Fatalf("trace spans diverged after kill+restore:\nbase:   %s\nkilled: %s", wantSpans, gotSpans)
	}
}

// The versioned snapshot blob itself must be deterministic: two snapshots
// of identically seeded runs at the same instant are byte-identical.
func TestSnapshotBytesDeterministic(t *testing.T) {
	take := func() []byte {
		w := newWorld(t, 2)
		composePaceWorkflow(t, w)
		o := newPaceOrchestrator(t, w, Options{})
		o.Start()
		w.s.Spawn("driver", func(p *sim.Proc) {
			if err := w.sv.Launch(p, "WF"); err != nil {
				t.Errorf("launch: %v", err)
			}
		})
		if err := w.s.Run(4 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if o.Arbiter.Busy() {
			t.Skip("arbiter busy at snapshot instant; pick another instant")
		}
		blob, err := ckpt.Encode(SnapshotKind, o.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		o.Stop()
		return blob
	}
	a, b := take(), take()
	if string(a) != string(b) {
		t.Fatalf("snapshot bytes differ between identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// withDeletedCounters rewrites a snapshot blob the way earlier versions
// wrote it: every stage kept its own copy of its counters (and the arbiter
// its empty rounds) inside its slice of the snapshot.
func withDeletedCounters(t *testing.T, blob []byte, o *Orchestrator) []byte {
	t.Helper()
	var snap map[string]any
	if err := ckpt.Decode(blob, SnapshotKind, &snap); err != nil {
		t.Fatal(err)
	}
	slice := func(name string) map[string]any { return snap[name].(map[string]any) }
	n := func(counter string) int64 { return o.Trace.Counter(counter) }
	server := slice("server")
	server["forwarded"], server["repolled"], server["dropped"] =
		n("monitor.forwarded"), n("monitor.repolled"), n("monitor.dropped_batches")
	dec := slice("decision")
	dec["evaluations"], dec["suggestions"] = n("decision.evaluations"), n("decision.suggestions")
	for _, b := range dec["bindings"].([]any) {
		b.(map[string]any)["fired"] = 1
	}
	arb := slice("arbiter")
	arb["discarded"] = n("arbiter.discarded_batches")
	arb["empty"] = []any{map[string]any{"Workflow": "WF", "ReceivedAt": int64(time.Minute),
		"PlannedAt": int64(time.Minute), "SuggestionIDs": []string{"WF/INC_ON_PACE#1"}}}
	for _, c := range snap["clients"].([]any) {
		c.(map[string]any)["sent"] = 42
	}
	out, err := ckpt.Encode(SnapshotKind, snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A snapshot written before the stage counters had one owner still carries
// them in every stage's slice; it must restore, and the run must end with
// the counters, spans and plan records of a run that was never
// interrupted. (Latency histograms are not checkpointed, so the report's
// sensor-lag and op rows restart empty either way.)
func TestRestoreSnapshotCarryingDeletedCounters(t *testing.T) {
	const horizon = 10 * time.Minute
	base := runPace(t, 0, horizon, nil, nil)
	killed := runPace(t, 3*time.Minute, horizon, func(blob []byte, o *Orchestrator) []byte {
		return withDeletedCounters(t, blob, o)
	}, nil)
	want, got := base.Trace.Report(), killed.Trace.Report()
	if len(base.Arbiter.Records()) == 0 || len(want.Counters) == 0 {
		t.Fatal("base run produced no plans or counters; the comparison is vacuous")
	}
	for _, c := range []struct {
		name      string
		base, got any
	}{
		{"counters", want.Counters, got.Counters},
		{"spans", want.Spans, got.Spans},
		{"stage latencies", want.Stages, got.Stages},
		{"plan records", base.Arbiter.Records(), killed.Arbiter.Records()},
	} {
		want, err := json.Marshal(c.base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("%s diverged after restoring an old-format snapshot:\nbase:     %s\nrestored: %s", c.name, want, got)
		}
	}
}

// A stage restart after a restore restarts the stage on the state it has:
// the arbiter, restarted by a panic minutes after its orchestrator was
// killed and restored, keeps the rounds it executed since the restore, and
// the run ends with the plan records of the same run without the kill.
func TestStageRestartAfterRestoreKeepsRounds(t *testing.T) {
	const horizon = 10 * time.Minute
	run := func(killAt time.Duration) *Orchestrator {
		var live *Orchestrator
		seen := 0
		return runPace(t, killAt, horizon, nil, func(w *world, o *Orchestrator) {
			if live == nil {
				// Once a second, Records() of whichever orchestrator is live
				// must hold at least what it held the second before.
				var watch func()
				watch = func() {
					n := len(live.Arbiter.Records())
					if n < seen {
						t.Errorf("kill at %v: arbiter records shrank from %d to %d at %v", killAt, seen, n, w.s.Now())
					}
					seen = n
					w.s.After(time.Second, watch)
				}
				w.s.After(time.Second, watch)
				// A second round, after the restore when there is one:
				// Decision asks for more analysis cores once more.
				w.s.At(4*time.Minute, func() {
					now := int64(w.s.Now())
					live.Bus.Endpoint(EndpointDecision).Send(EndpointArbiter, []decision.Suggestion{{
						Workflow: "WF", PolicyID: "INC_ON_PACE", Action: "ADDCPU",
						AssessTask: "Ana", ActOnTasks: []string{"Ana"},
						Params:      map[string]string{"adjust-by": "6"},
						GeneratedAt: now, DecidedAt: now,
					}})
				})
				// Detonate inside the arbiter's process slot after that round.
				w.s.At(6*time.Minute, func() {
					live.Supervisor.spawner(StageArbiter)("arbiter-bomb", func(p *sim.Proc) {
						if err := p.Sleep(time.Second); err != nil {
							return
						}
						panic("injected stage fault")
					})
				})
			}
			live = o
		})
	}
	base, killed := run(0), run(3*time.Minute)
	for _, o := range []*Orchestrator{base, killed} {
		if n := len(o.Arbiter.Records()); n != 2 {
			t.Fatalf("arbiter records = %d, want the policy's round and the one at 4m", n)
		}
		if v, _ := o.Metrics.Value("dyflow_stage_restarts_total"); v != 1 {
			t.Fatalf("dyflow_stage_restarts_total = %v, want 1", v)
		}
	}
	want, err := json.Marshal(base.Arbiter.Records())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(killed.Arbiter.Records())
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("plan records diverged after kill+restore and a stage restart:\nbase:   %s\nkilled: %s", want, got)
	}
}
