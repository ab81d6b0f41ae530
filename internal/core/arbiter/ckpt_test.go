package arbiter

import (
	"encoding/json"
	"testing"
	"time"

	"dyflow/internal/core/decision"
)

// A snapshot must round-trip through JSON (the checkpoint wire format)
// without losing T_waiting recovery entries or deadlines.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute,
		FailureCooldown: 10 * time.Second, GatherWindow: time.Second})
	r.exec.failAfter = 0 // every op fails -> recovery requeue
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}})
	if err := r.s.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := r.eng.Snapshot()
	if len(snap.Waiting) != 1 || !snap.Waiting[0].Tasks[0].Recovery {
		t.Fatalf("snapshot waiting = %+v, want one recovery entry", snap.Waiting)
	}
	if snap.SettleUntil == 0 {
		t.Fatal("snapshot lost the failure-cooldown deadline")
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	r.eng.Restore(back)
	after := r.eng.Snapshot()
	blob2, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("snapshot not stable across restore:\n%s\nvs\n%s", blob, blob2)
	}
}

// A failed round's recovery T_waiting entry and FailureCooldown deadline
// must reach a replacement engine through the snapshot taken at the crash,
// and the replacement must honor both: the in-cooldown batch is discarded,
// and the next round past the cooldown restarts the stranded task from
// free capacity.
func TestRestoredEngineHonorsRecoveryWaitingAndCooldown(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: 2 * time.Minute,
		FailureCooldown: 30 * time.Second, GatherWindow: time.Second})
	r.exec.failAfter = 1 // apply the stop, fail the start
	r.exec.apply = func(p Plan) {
		for i, op := range p.Ops {
			if r.exec.failAfter >= 0 && i >= r.exec.failAfter {
				break
			}
			st := r.view.tasks[p.Workflow][op.Task]
			st.Running = op.Kind == OpStart
			if op.Kind == OpStart {
				st.Procs = op.Procs
			}
			r.view.tasks[p.Workflow][op.Task] = st
		}
	}

	// Failed round: the stop applies, the start doesn't -> A is stranded,
	// requeued as a recovery entry, cooldown armed until ~41s.
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "RESTART", AssessTask: "A", ActOnTasks: []string{"A"}})

	// Crash at 20s: snapshot the engine, kill it and restore a replacement
	// from that snapshot.
	r.s.At(20*time.Second, func() {
		if recs := r.eng.Records(); len(recs) != 1 {
			t.Fatalf("records = %+v, want the one failed round", recs)
		}
		snap := r.eng.Snapshot()
		r.eng.Stop()
		eng2 := New(r.s, r.bus, "arbiter", r.cfg, r.rules, r.view, r.exec)
		eng2.SetTracer(r.tr) // the orchestrator's recorder outlives the engine
		eng2.Restore(snap)
		eng2.Start()
		r.eng = eng2
	})

	// Inside the restored cooldown: must be discarded without planning.
	sendSuggestions(r, 25*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "STOP", AssessTask: "B", ActOnTasks: []string{"B"}})
	// Past the cooldown: actuation healthy again; the round must pick up
	// the restored recovery entry.
	r.s.At(59*time.Second, func() { r.exec.failAfter = -1 })
	sendSuggestions(r, time.Minute,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "STOP", AssessTask: "B", ActOnTasks: []string{"B"}})
	if err := r.s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if got := r.tr.Counter("arbiter.discarded_batches"); got != 1 {
		t.Fatalf("discarded = %d, want 1 (the in-cooldown batch, honoring the restored deadline)", got)
	}
	recs := r.eng.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %+v, want the restored failed round + live recovery round", recs)
	}
	if recs[0].Err == "" {
		t.Fatalf("restored round = %+v, want the restored failure", recs[0])
	}
	if recs[1].Err != "" || recs[1].AppliedOps != 1 {
		t.Fatalf("recovery round = %+v, want the restart applied", recs[1])
	}
	last := r.exec.plans[len(r.exec.plans)-1].Ops
	if len(last) != 1 || last[0].Kind != OpStart || last[0].Task != "A" || last[0].Procs != 10 {
		t.Fatalf("recovery plan = %v, want A restarted at its old size", last)
	}
	if st := r.view.tasks["W"]["A"]; !st.Running {
		t.Fatal("A still stranded: the restored engine never honored the recovery entry")
	}
	if w := r.eng.Waiting("W"); len(w) != 0 {
		t.Fatalf("waiting = %+v, want the recovery entry consumed", w)
	}
}
