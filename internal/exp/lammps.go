package exp

import (
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/specs"
)

// LAMMPSResult is the outcome of a failure-resilience run.
type LAMMPSResult struct {
	W       *World
	Machine apps.Machine
	// FailureAt is when the node was taken out of service.
	FailureAt sim.Time
	// FailedNode is the node that died.
	FailedNode cluster.NodeID
	// RecoveryResponse is the restart plan's plan+actuation time.
	RecoveryResponse time.Duration
	// ResumeStep is the global step LAMMPS resumed from (paper: 412).
	ResumeStep int
	// Completed reports whether LAMMPS finished all steps after recovery.
	Completed bool
	Makespan  sim.Time
}

// RunLAMMPS executes the failure-resilience experiment (Figure 11):
// 10 minutes into the run an allocated node is taken out of service,
// failing the whole workflow; RESTART_ON_FAILURE restarts every task
// excluding the failed node, and LAMMPS resumes from its last checkpoint.
// withDyflow=false runs the baseline, where the failed workflow just stays
// down.
func RunLAMMPS(seed int64, m apps.Machine, withDyflow bool) (*LAMMPSResult, error) {
	return runLAMMPS(seed, m, withDyflow, Variant{})
}

func runLAMMPS(seed int64, m apps.Machine, withDyflow bool, v Variant) (*LAMMPSResult, error) {
	cfg := apps.LAMMPSConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := w.SV.Compose(apps.LAMMPSWorkflow(m)); err != nil {
		return nil, err
	}
	if withDyflow {
		if err := w.orchestrate(v, specs.LAMMPS(m), false, core.Options{}); err != nil {
			return nil, err
		}
	}
	if err := w.launch(v, apps.LAMMPSWorkflowID); err != nil {
		return nil, err
	}

	res := &LAMMPSResult{W: w, Machine: m, FailureAt: 10 * time.Minute}
	// Fail a node in the middle of the allocation 10 minutes in.
	res.FailedNode = "node003"
	w.Cluster.FailNodeAt(res.FailureAt, res.FailedNode)

	completed := func() bool {
		inst := w.SV.Instance(apps.LAMMPSWorkflowID, "LAMMPS")
		return inst != nil && inst.State() == task.Completed && inst.GlobalStep() >= cfg.TotalSteps
	}
	err = w.drive(3*time.Hour, 10*time.Second, func() (bool, error) {
		if completed() && !w.SV.AnyRunning(apps.LAMMPSWorkflowID) {
			return true, nil
		}
		// The baseline has nothing that will ever restart the workflow.
		return !withDyflow && w.Sim.Now() > res.FailureAt+5*time.Minute, nil
	})
	if err != nil {
		return nil, err
	}
	w.Rec.CloseOpen()
	res.Makespan = w.Sim.Now()

	res.Completed = completed()
	if plans := w.Plans(); len(plans) > 0 {
		res.RecoveryResponse = plans[0].ResponseTime()
	}
	inst := w.SV.Instance(apps.LAMMPSWorkflowID, "LAMMPS")
	// The resume step is the checkpoint the second incarnation started
	// from: its global step history begins there.
	if ivs := w.Rec.TaskIntervals(apps.LAMMPSWorkflowID, "LAMMPS"); len(ivs) > 1 && inst != nil {
		res.ResumeStep = inst.GlobalStep() - inst.StepsDone()
	}
	return res, nil
}
