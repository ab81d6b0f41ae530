package actuate

import (
	"errors"
	"slices"
	"testing"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/fsim"
	"dyflow/internal/obs"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
)

type rig struct {
	s  *sim.Sim
	c  *cluster.Cluster
	rm *resmgr.Manager
	sv *wms.Savanna
	ex *Executor
	tr *trace.Recorder // the executor's flight recorder
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New(1)
	c := cluster.Deepthought2(s, 3)
	reg := obs.NewRegistry()
	rm := resmgr.New(c, reg)
	if _, err := rm.Allocate(3); err != nil {
		t.Fatal(err)
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	sv := wms.New(env, rm, reg)
	sv.Compose(&wms.WorkflowSpec{
		ID: "WF",
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{Name: "A", Workflow: "WF",
					Cost: task.Cost{Work: 100 * time.Second}, TotalSteps: 1000},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			{
				Spec: task.Spec{Name: "B", Workflow: "WF",
					Cost: task.Cost{Work: 10 * time.Second}, TotalSteps: 1000},
				Procs: 10, ProcsPerNode: 5,
			},
		},
	})
	tr := trace.New(reg)
	return &rig{s: s, c: c, rm: rm, sv: sv, ex: NewExecutor(&SavannaPlugin{SV: sv}, tr), tr: tr}
}

// ops returns the actuation ops tr recorded, in execution order.
func ops(tr *trace.Recorder) []trace.Op {
	var out []trace.Op
	tr.VisitOps(func(op *trace.Op) { out = append(out, *op) })
	return out
}

func TestExecutePlanInOrder(t *testing.T) {
	r := newRig(t)

	r.s.Spawn("driver", func(p *sim.Proc) {
		if err := r.sv.Launch(p, "WF"); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		p.Sleep(5 * time.Second)
		plan := arbiter.Plan{
			Ops: []arbiter.Op{
				{Kind: arbiter.OpStop, Workflow: "WF", Task: "A", Graceful: true},
				{Kind: arbiter.OpStart, Workflow: "WF", Task: "A", Procs: 20, PerNode: 0},
				{Kind: arbiter.OpStart, Workflow: "WF", Task: "B", Procs: 10, PerNode: 5},
			},
		}
		rep, err := r.ex.Execute(p, plan)
		if err != nil {
			t.Errorf("execute: %v", err)
		}
		if rep.Applied != 3 || rep.Aborted != 0 || len(rep.UnappliedStarts) != 0 {
			t.Errorf("report = %+v, want 3 applied", rep)
		}
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := ops(r.tr)
	if len(recs) != 3 {
		t.Fatalf("ops = %d, want 3", len(recs))
	}
	took := func(op trace.Op) sim.Time { return op.EndedAt - op.StartedAt }
	// The graceful stop took the remainder of A's current step (~5s).
	if d := took(recs[0]); recs[0].Kind != "stop" || d < 4*time.Second || d > 6*time.Second {
		t.Fatalf("stop = %+v, took %v, want a ~5s drain", recs[0], d)
	}
	// Starts are quick (no scripts).
	if took(recs[1]) > time.Second || took(recs[2]) > time.Second {
		t.Fatalf("start durations = %v, %v", took(recs[1]), took(recs[2]))
	}
	if recs[2].Kind != "start" || recs[2].Workflow != "WF" || recs[2].Task != "B" || recs[2].Attempts != 1 {
		t.Fatalf("last op = %+v, want B's start, applied first try", recs[2])
	}
	if r.sv.Instance("WF", "A").Placement.Procs() != 20 {
		t.Fatal("A not resized")
	}
	if !r.sv.TaskRunning("WF", "B") {
		t.Fatal("B not started")
	}
	if share := r.tr.OpShare(arbiter.OpStop.String()); share < 0.8 {
		t.Fatalf("stop share = %v, want graceful stop to dominate", share)
	}
}

func TestExecuteAbortsOnInfeasibleStart(t *testing.T) {
	r := newRig(t)
	r.s.Spawn("driver", func(p *sim.Proc) {
		// 60 cores total; asking for 100 must fail and abort the rest.
		plan := arbiter.Plan{
			Ops: []arbiter.Op{
				{Kind: arbiter.OpStart, Workflow: "WF", Task: "A", Procs: 100},
				{Kind: arbiter.OpStart, Workflow: "WF", Task: "B", Procs: 10},
			},
		}
		rep, err := r.ex.Execute(p, plan)
		if err == nil {
			t.Error("expected carve failure")
		}
		if !errors.Is(err, resmgr.ErrInsufficient) || !Retryable(err) {
			t.Errorf("err = %v, want a retryable ErrInsufficient", err)
		}
		if want := "actuate: start WF/A: resmgr: insufficient resources: carve 100 cores (per-node 0), 40 short"; err == nil || err.Error() != want {
			t.Errorf("err = %q, want %q", err, want)
		}
		// Both START ops never applied and must be reported for recovery.
		if rep.Applied != 0 || rep.Aborted != 2 || len(rep.UnappliedStarts) != 2 {
			t.Errorf("report = %+v, want 0 applied, 2 aborted starts", rep)
		}
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.sv.TaskRunning("WF", "B") {
		t.Fatal("ops after the failing one must not execute")
	}
	recs := ops(r.tr)
	if len(recs) != 1 || recs[0].Err == "" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestStartRetriesInjectedCarveFaultAndRecovers(t *testing.T) {
	r := newRig(t)
	tr := r.tr
	r.ex.retry = RetryPolicy{MaxAttempts: 4, Backoff: 2 * time.Second}
	faults := resmgr.NewFaults(1, 1.0)
	r.rm.InjectFaults(faults)
	// Attempts land at t=1s, 3s, 7s; the fault clears at 5s, so the third
	// attempt succeeds.
	r.s.At(5*time.Second, func() { faults.CarveFailProb = 0 })

	r.s.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		plan := arbiter.Plan{Ops: []arbiter.Op{
			{Kind: arbiter.OpStart, Workflow: "WF", Task: "B", Procs: 10, PerNode: 5},
		}}
		rep, err := r.ex.Execute(p, plan)
		if err != nil {
			t.Errorf("execute: %v", err)
		}
		if rep.Applied != 1 {
			t.Errorf("report = %+v, want 1 applied", rep)
		}
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !r.sv.TaskRunning("WF", "B") {
		t.Fatal("B not started")
	}
	recs := ops(r.tr)
	if len(recs) != 1 || recs[0].Attempts != 3 || recs[0].Err != "" {
		t.Fatalf("records = %+v, want one op applied on attempt 3", recs)
	}
	if got := tr.Counter("actuate.retries"); got != 2 {
		t.Fatalf("actuate.retries = %d, want 2", got)
	}
	if got := tr.Counter("actuate.recovered_ops"); got != 1 {
		t.Fatalf("actuate.recovered_ops = %d, want 1", got)
	}
	if faults.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", faults.Injected())
	}
}

func TestStartRetryUntilExhausted(t *testing.T) {
	r := newRig(t)
	tr := r.tr
	r.rm.InjectFaults(resmgr.NewFaults(1, 1.0)) // every carve fails
	r.s.Spawn("driver", func(p *sim.Proc) {
		plan := arbiter.Plan{Ops: []arbiter.Op{
			{Kind: arbiter.OpStart, Workflow: "WF", Task: "B", Procs: 10, PerNode: 5},
		}}
		rep, err := r.ex.Execute(p, plan)
		if !errors.Is(err, resmgr.ErrInsufficient) {
			t.Errorf("err = %v, want ErrInsufficient", err)
		}
		if rep.Applied != 0 || rep.Aborted != 1 || len(rep.UnappliedStarts) != 1 {
			t.Errorf("report = %+v, want the start reported unapplied", rep)
		}
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := ops(r.tr)
	if len(recs) != 1 || recs[0].Attempts != DefaultRetryPolicy().MaxAttempts {
		t.Fatalf("records = %+v, want retry budget exhausted", recs)
	}
	if got := tr.Counter("actuate.retries"); got != int64(DefaultRetryPolicy().MaxAttempts-1) {
		t.Fatalf("actuate.retries = %d", got)
	}
	if tr.Counter("actuate.recovered_ops") != 0 {
		t.Fatal("nothing recovered, counter must stay 0")
	}
	if owners := r.rm.Owners(); len(owners) != 0 {
		t.Fatalf("leaked assignments: %v", owners)
	}
}

// A node dies while the start script runs, then heals before the retry
// lands. The retry must re-carve around the just-failed node (the exclude
// list), not trust its apparent health.
func TestStartRecarvesAroundLostNode(t *testing.T) {
	s := sim.New(1)
	c := cluster.Deepthought2(s, 3)
	reg := obs.NewRegistry()
	rm := resmgr.New(c, reg)
	if _, err := rm.Allocate(3); err != nil {
		t.Fatal(err)
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	sv := wms.New(env, rm, reg)
	sv.Compose(&wms.WorkflowSpec{
		ID: "WF",
		Tasks: []wms.TaskConfig{{
			Spec: task.Spec{Name: "B", Workflow: "WF",
				Cost: task.Cost{Work: 100 * time.Second}, TotalSteps: 1000},
			Procs: 20, ProcsPerNode: 20, StartScript: "boot.sh",
		}},
	})
	sv.RegisterScript("boot.sh", 10*time.Second)
	tr := trace.New(reg)
	ex := NewExecutor(&SavannaPlugin{SV: sv}, tr)
	ex.retry = RetryPolicy{MaxAttempts: 3, Backoff: 2 * time.Second}

	// The first carve fills node000; it dies mid-script and heals before
	// the retry, so a naive re-carve would land right back on it.
	s.At(5*time.Second, func() { c.FailNode("node000") })
	s.At(6*time.Second, func() { c.RestoreNode("node000") })

	s.Spawn("driver", func(p *sim.Proc) {
		plan := arbiter.Plan{Ops: []arbiter.Op{
			{Kind: arbiter.OpStart, Workflow: "WF", Task: "B", Procs: 20, PerNode: 20, Script: "boot.sh"},
		}}
		if _, err := ex.Execute(p, plan); err != nil {
			t.Errorf("execute: %v", err)
		}
	})
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !sv.TaskRunning("WF", "B") {
		t.Fatal("B not started")
	}
	pl := sv.Instance("WF", "B").Placement
	if _, onDead := pl["node000"]; onDead {
		t.Fatalf("retry landed back on the just-failed node: %v", pl)
	}
	recs := ops(tr)
	if len(recs) != 1 || recs[0].Attempts != 2 {
		t.Fatalf("records = %+v, want success on attempt 2", recs)
	}
	if tr.Counter("actuate.recovered_ops") != 1 {
		t.Fatal("recovered_ops counter not incremented")
	}
}

// A mid-plan failure after a successful stop: the report must show the
// stop applied and the start aborted so the engine can requeue the task.
func TestExecuteReportsStopAppliedStartAborted(t *testing.T) {
	r := newRig(t)
	r.ex.retry = RetryPolicy{MaxAttempts: 1}
	r.s.Spawn("driver", func(p *sim.Proc) {
		if err := r.sv.Launch(p, "WF"); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		p.Sleep(5 * time.Second)
		plan := arbiter.Plan{Ops: []arbiter.Op{
			{Kind: arbiter.OpStop, Workflow: "WF", Task: "A", Graceful: true},
			{Kind: arbiter.OpStart, Workflow: "WF", Task: "A", Procs: 100},
		}}
		rep, err := r.ex.Execute(p, plan)
		if !errors.Is(err, resmgr.ErrInsufficient) {
			t.Errorf("err = %v, want ErrInsufficient", err)
		}
		if rep.Applied != 1 || rep.Aborted != 1 {
			t.Errorf("report = %+v, want stop applied, start aborted", rep)
		}
		if len(rep.UnappliedStarts) != 1 || rep.UnappliedStarts[0].Task != "A" {
			t.Errorf("unapplied starts = %+v", rep.UnappliedStarts)
		}
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := ops(r.tr)
	if len(recs) != 2 || recs[0].Err != "" || recs[1].Err == "" {
		t.Fatalf("records = %+v", recs)
	}
	if r.sv.TaskRunning("WF", "A") {
		t.Fatal("A must be stranded stopped (the engine requeues it)")
	}
}

// TestUnhealthyNodesPassThrough: the plugin reports the allocation's
// failed nodes, in node order, and nothing once every node is back.
func TestUnhealthyNodesPassThrough(t *testing.T) {
	r := newRig(t)
	if got := r.ex.plugin.UnhealthyNodes(); got != nil {
		t.Fatalf("unhealthy = %v on a healthy allocation", got)
	}
	r.c.FailNode("node002")
	r.c.FailNode("node000")
	if got := r.ex.plugin.UnhealthyNodes(); !slices.Equal(got, []cluster.NodeID{"node000", "node002"}) {
		t.Fatalf("unhealthy = %v, want [node000 node002]", got)
	}
	r.c.RestoreNode("node000")
	r.c.RestoreNode("node002")
	if got := r.ex.plugin.UnhealthyNodes(); got != nil {
		t.Fatalf("unhealthy = %v after every node healed", got)
	}
}
