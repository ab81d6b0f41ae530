package exp

import (
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/fsim"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/specs"
)

// XGCEvent classifies one dynamic event of the XGC experiment.
type XGCEvent struct {
	// Kind is "start-xgca", "start-xgc1", "switch", or "stop".
	Kind string
	// At is when the plan's suggestions were arbitrated.
	At sim.Time
	// Response is the plan+actuation time (paper Figure 6's response
	// windows, excluding frequency/gather delay).
	Response time.Duration
}

// XGCResult is the outcome of an XGC alternation run.
type XGCResult struct {
	W        *World
	Machine  apps.Machine
	Events   []XGCEvent
	Makespan sim.Time
	// FinalStep is the workflow-global timestep reached.
	FinalStep int
	// XGCaStarts counts XGCa incarnations (paper: three).
	XGCaStarts int
}

// classifyXGCPlan maps a plan's operations to the experiment's event
// vocabulary.
func classifyXGCPlan(rec arbiter.Record) string {
	var stopsXGCA, startsXGC1, startsXGCA, stops bool
	for _, op := range rec.Plan.Ops {
		switch {
		case op.Kind == arbiter.OpStop && op.Task == "XGCA":
			stopsXGCA = true
			stops = true
		case op.Kind == arbiter.OpStop:
			stops = true
		case op.Kind == arbiter.OpStart && op.Task == "XGC1":
			startsXGC1 = true
		case op.Kind == arbiter.OpStart && op.Task == "XGCA":
			startsXGCA = true
		}
	}
	switch {
	case stopsXGCA && startsXGC1:
		return "switch"
	case startsXGCA:
		return "start-xgca"
	case startsXGC1:
		return "start-xgc1"
	case stops:
		return "stop"
	}
	return "other"
}

// RunXGC executes the science-driven alternation experiment (Figure 6).
func RunXGC(seed int64, m apps.Machine) (*XGCResult, error) { return runXGC(seed, m, Variant{}) }

func runXGC(seed int64, m apps.Machine, v Variant) (*XGCResult, error) {
	cfg := apps.XGCConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := w.SV.Compose(apps.XGCWorkflow(m)); err != nil {
		return nil, err
	}
	w.SV.RegisterScript(apps.XGCRestartScript, apps.XGCRestartScriptCost)
	// The initial-condition file primes XGCa's NSTEPS/LAG series (the
	// restart chain always has a step-0 state on disk).
	w.Env.FS.Write("out/xgca.00000.bp", fsim.Var{Name: "step"}, fsim.Var{Name: "errnorm"})

	// The science-driven scenario uses a short settle window: the guard
	// exists to damp performance-feedback oscillation, and a 2-minute
	// settle would delay STOP_ON_COND well past step 502 (the experiment
	// ends ~56 s of XGCa progress after its final start).
	opts := core.Options{Arbiter: arbiter.Config{
		WarmupDelay:  2 * time.Minute,
		SettleDelay:  30 * time.Second,
		PlanCost:     100 * time.Millisecond,
		GatherWindow: 5 * time.Second,
	}}
	if err := w.orchestrate(v, specs.XGC(m), false, opts); err != nil {
		return nil, err
	}
	if err := w.launch(v, apps.XGCWorkflowID); err != nil {
		return nil, err
	}

	// Run until the experiment completes: the global step passes 500 and
	// no task is running.
	err = w.drive(6*time.Hour, 10*time.Second, func() (bool, error) {
		step, _ := w.Env.FS.ReadVar(apps.XGCProgressKey, "step")
		return step > 500 && !w.SV.AnyRunning(apps.XGCWorkflowID), nil
	})
	if err != nil {
		return nil, err
	}
	w.Rec.CloseOpen()

	res := &XGCResult{W: w, Machine: m, Makespan: w.Sim.Now()}
	if v, err := w.Env.FS.ReadVar(apps.XGCProgressKey, "step"); err == nil {
		res.FinalStep = int(v)
	}
	for _, rec := range w.Plans() {
		res.Events = append(res.Events, XGCEvent{
			Kind:     classifyXGCPlan(rec),
			At:       rec.ReceivedAt,
			Response: rec.ResponseTime(),
		})
	}
	res.XGCaStarts = len(w.Rec.TaskIntervals(apps.XGCWorkflowID, "XGCA"))
	return res, nil
}

// RunXGCBaseline runs the no-DYFLOW comparison: the full experiment
// completed with XGC1 alone (the paper: "the simulation completes only
// using XGC1 and takes approximately 25% more time").
func RunXGCBaseline(seed int64, m apps.Machine, totalSteps int) (sim.Time, error) {
	cfg := apps.XGCConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes)
	if err != nil {
		return 0, err
	}
	defer w.Close() // only the makespan leaves this function
	wf := apps.XGCWorkflow(m)
	var only *task.Spec
	for i := range wf.Tasks {
		if wf.Tasks[i].Spec.Name == "XGC1" {
			only = &wf.Tasks[i].Spec
		}
	}
	only.TotalSteps = totalSteps
	wf.Tasks = wf.Tasks[:1] // XGC1 only
	if err := w.SV.Compose(wf); err != nil {
		return 0, err
	}
	w.Launch(apps.XGCWorkflowID)
	return w.RunUntilWorkflowDone(apps.XGCWorkflowID, 12*time.Hour)
}
