package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// runPace drives the pace-adaptation world to the horizon, killing the
// orchestrator at killAt (0 = never) and restoring a fresh instance, built
// over the world's flight recorder and round log, from its checkpoint blob
// in place; rewrite, when set, replaces the blob before the restore reads
// it, and started, when set, sees every orchestrator the run starts — the
// first and a restored one. Returns the orchestrator that finished the run
// and the world's round log.
func runPace(t *testing.T, killAt, horizon time.Duration, rewrite func(blob []byte, w *world, o *Orchestrator) []byte, started func(w *world, o *Orchestrator)) (*Orchestrator, arbiter.Rounds) {
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
			blob = rewrite(blob, w, o)
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
	return o, *w.rounds
}

// An orchestrator killed mid-campaign and restored from its checkpoint must
// converge to the same plan sequence as an uninterrupted run with the same
// seed: the checkpoint captures everything decision-relevant.
func TestCheckpointRestoreDeterminism(t *testing.T) {
	const horizon = 10 * time.Minute
	base, baseRounds := runPace(t, 0, horizon, nil, nil)
	killed, killedRounds := runPace(t, 3*time.Minute, horizon, nil, nil)

	wantRecs, err := json.Marshal(baseRounds)
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, err := json.Marshal(killedRounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseRounds) == 0 {
		t.Fatal("base run produced no plans; the comparison is vacuous")
	}
	if string(wantRecs) != string(gotRecs) {
		t.Fatalf("plan records diverged after kill+restore:\nbase:   %s\nkilled: %s", wantRecs, gotRecs)
	}

	// The flight recorder is the world's, handed to the restored
	// orchestrator: its report — spans, stage latencies, sensor lags, op
	// latencies, counters and queue depths — and its op log are the
	// uninterrupted run's.
	wantRep, _ := json.Marshal(base.Trace.Report())
	gotRep, _ := json.Marshal(killed.Trace.Report())
	if string(wantRep) != string(gotRep) {
		t.Fatalf("flight-recorder report diverged after kill+restore:\nbase:   %s\nkilled: %s", wantRep, gotRep)
	}
	wantOps, _ := json.Marshal(recordedOps(base.Trace))
	gotOps, _ := json.Marshal(recordedOps(killed.Trace))
	if string(wantOps) != string(gotOps) || string(wantOps) == "null" {
		t.Fatalf("actuation op log diverged after kill+restore:\nbase:   %s\nkilled: %s", wantOps, gotOps)
	}
}

// recordedOps returns the actuation ops tr recorded, in execution order.
func recordedOps(tr *trace.Recorder) []trace.Op {
	var out []trace.Op
	tr.VisitOps(func(op *trace.Op) { out = append(out, *op) })
	return out
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
// its empty rounds and, as "records", the rounds executed before the kill)
// inside its slice of the snapshot, the flight recorder's state rode along
// as "trace", and the Monitor server and Decision held the marks of their
// out-of-order filters.
func withDeletedCounters(t *testing.T, blob []byte, o *Orchestrator, rounds arbiter.Rounds) []byte {
	t.Helper()
	var snap map[string]any
	if err := ckpt.Decode(blob, SnapshotKind, &snap); err != nil {
		t.Fatal(err)
	}
	slice := func(name string) map[string]any { return snap[name].(map[string]any) }
	n := func(counter string) int64 { return o.Trace.Counter(counter) }
	server := slice("server")
	// No world ever dropped a batch: the out-of-order filter that counted
	// them admitted every one.
	server["forwarded"], server["repolled"], server["dropped"] =
		n("monitor.forwarded"), n("monitor.repolled"), 0
	dec := slice("decision")
	dec["evaluations"], dec["suggestions"] = n("decision.evaluations"), n("decision.suggestions")
	// Both receivers' out-of-order filter marks, as the checkpoint held
	// them until the filters went.
	server["filter"] = map[string]any{"monitor-client-0": 7}
	dec["filter"] = map[string]any{EndpointMonitorServer: 5}
	for _, b := range dec["bindings"].([]any) {
		b.(map[string]any)["fired"] = 1
	}
	arb := slice("arbiter")
	arb["discarded"] = n("arbiter.discarded_batches")
	arb["empty"] = []any{map[string]any{"Workflow": "WF", "ReceivedAt": int64(time.Minute),
		"PlannedAt": int64(time.Minute), "SuggestionIDs": []string{"WF/INC_ON_PACE#1"}}}
	if len(rounds) == 0 {
		t.Fatal("no round executed before the kill; the records member would be empty")
	}
	b, err := json.Marshal(rounds)
	if err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(b, &records); err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		rec["EventAt"] = rec["ReceivedAt"] // a field of the old record, never read back
	}
	arb["records"] = records
	slice("client")["sent"] = 42
	snap["trace"] = map[string]any{
		"spans":    []any{map[string]any{"id": "WF/INC_ON_PACE#1", "workflow": "WF", "policy": "INC_ON_PACE"}},
		"counters": []any{map[string]any{"name": "decision.suggestions", "value": 2 * n("decision.suggestions")}},
		"queues":   []any{map[string]any{"endpoint": EndpointArbiter, "samples": 1, "sum": 99, "max": 99}},
	}
	out, err := ckpt.Encode(SnapshotKind, snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A snapshot written before the stage counters had one owner still carries
// them in every stage's slice, one written before the flight recorder left
// the checkpoint carries the recorder's state, and one written before the
// out-of-order filters went carries their marks; it must restore without
// touching the recorder, and the run must end with the flight-recorder
// report and plan records of a run that was never interrupted.
func TestRestoreSnapshotCarryingDeletedCounters(t *testing.T) {
	const horizon = 10 * time.Minute
	base, baseRounds := runPace(t, 0, horizon, nil, nil)
	killed, killedRounds := runPace(t, 3*time.Minute, horizon, func(blob []byte, w *world, o *Orchestrator) []byte {
		return withDeletedCounters(t, blob, o, *w.rounds)
	}, nil)
	want, got := base.Trace.Report(), killed.Trace.Report()
	if len(baseRounds) == 0 || len(want.Counters) == 0 {
		t.Fatal("base run produced no plans or counters; the comparison is vacuous")
	}
	for _, c := range []struct {
		name      string
		base, got any
	}{
		{"flight-recorder report", want, got},
		{"plan records", baseRounds, killedRounds},
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
	run := func(killAt time.Duration) (*Orchestrator, arbiter.Rounds) {
		var live *Orchestrator
		seen := 0
		return runPace(t, killAt, horizon, nil, func(w *world, o *Orchestrator) {
			if live == nil {
				// Once a second, the world's round log must hold at least
				// what it held the second before.
				var watch func()
				watch = func() {
					n := len(*w.rounds)
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
					live.Bus.Endpoint(EndpointDecision).Send(EndpointArbiter, &decision.Round{Sugs: []decision.Suggestion{{Rule: decision.NewRule("WF", "INC_ON_PACE", "ADDCPU", "Ana", []string{"Ana"}, map[string]string{"adjust-by": "6"}), GeneratedAt: now, DecidedAt: now}}})
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
	base, baseRounds := run(0)
	killed, killedRounds := run(3 * time.Minute)
	for _, n := range []int{len(baseRounds), len(killedRounds)} {
		if n != 2 {
			t.Fatalf("arbiter records = %d, want the policy's round and the one at 4m", n)
		}
	}
	for _, o := range []*Orchestrator{base, killed} {
		if v, _ := o.Trace.Registry().Value("dyflow_stage_restarts_total"); v != 1 {
			t.Fatalf("dyflow_stage_restarts_total = %v, want 1", v)
		}
	}
	want, err := json.Marshal(baseRounds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(killedRounds)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("plan records diverged after kill+restore and a stage restart:\nbase:   %s\nkilled: %s", want, got)
	}
}

// TestQueuedRoundRestoresHomeless: a suggestion round queued on the
// Arbiter's endpoint at a snapshot is held as the JSON of its suggestions'
// records, and restores to a round of equal suggestions that has no home:
// releasing it, even twice, sends nothing to the free list the live round
// came off.
func TestQueuedRoundRestoresHomeless(t *testing.T) {
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Encode, bus.Decode = encodePayload, decodePayload
	dec := bus.Endpoint(EndpointDecision)
	bus.Endpoint(EndpointArbiter)
	var free []*decision.Round
	live := decision.TakeRound(&free)
	live.Sugs = append(live.Sugs,
		decision.Suggestion{Rule: decision.NewRule("WF", "INC_ON_PACE", "ADDCPU", "Ana", []string{"Ana"}, map[string]string{"adjust-by": "6"}), Seq: 3, MetricValue: 1.5, Step: 7, GeneratedAt: 10, ObservedAt: 11, DecidedAt: 12},
		decision.Suggestion{Rule: decision.NewRule("WF", "STOP_IDLE", "STOP", "Sim", nil, nil), Seq: 4, DecidedAt: 12},
	)
	want := ckpt.Map(live.Sugs, decision.Suggestion.Record)
	if err := dec.Send(EndpointArbiter, live); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(s.Now()); err != nil {
		t.Fatal(err)
	}
	snap := bus.Snapshot()
	wantData, _ := json.Marshal(want)
	for _, es := range snap.Endpoints {
		if es.Name == EndpointArbiter && (len(es.Queue) != 1 || string(es.Queue[0].Data) != string(wantData)) {
			t.Fatalf("the queued round is held as %+v, want one envelope of %s", es.Queue, wantData)
		}
	}

	restored := msg.NewBus(sim.New(1))
	restored.Encode, restored.Decode = encodePayload, decodePayload
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	env, ok := restored.Endpoint(EndpointArbiter).TryRecv()
	if !ok {
		t.Fatal("the restored Arbiter endpoint holds no round")
	}
	r, err := msg.Payload[*decision.Round](&env)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckpt.Map(r.Sugs, decision.Suggestion.Record); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored round holds %+v, want %+v", got, want)
	}
	r.Release()
	r.Release()
	if got := ckpt.Map(r.Sugs, decision.Suggestion.Record); !reflect.DeepEqual(got, want) || len(free) != 0 {
		t.Fatalf("releasing the restored round changed it to %+v or sent it home (%d on the free list)", got, len(free))
	}
	live.Release()
	if len(free) != 1 || free[0] != live {
		t.Fatalf("the live round's release left the free list %v, want the round on it", free)
	}
}
