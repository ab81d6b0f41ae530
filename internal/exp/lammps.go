package exp

import (
	"fmt"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// LAMMPSXML is the orchestration document for the failure-resilience
// experiment — the complete version of paper Figure 10: a STATUS sensor
// over the scheduler-written exit files and a RESTART_ON_FAILURE policy
// per task firing on exit codes above 128 (signal deaths).
func LAMMPSXML(m apps.Machine) string {
	monitor := ""
	applies := ""
	for _, name := range []string{"LAMMPS", "CS_Calc", "CNA_Calc", "RDF_Calc"} {
		monitor += fmt.Sprintf(`
      <monitor-task name="%s" workflowId="MD-WORKFLOW">
        <use-sensor sensor-id="STATUS" info="exitcode"/>
      </monitor-task>`, name)
		applies += fmt.Sprintf(`
      <apply-policy policyId="RESTART_ON_FAILURE" assess-task="%s">
        <act-on-tasks>%s</act-on-tasks>
      </apply-policy>`, name, name)
	}
	return fmt.Sprintf(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="STATUS" type="ERRORSTATUS">
        <group-by><group granularity="task" reduction-operation="FIRST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>%s
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="RESTART_ON_FAILURE">
        <eval operation="GT" threshold="128"/>
        <sensors-to-use><use-sensor id="STATUS" granularity="task"/></sensors-to-use>
        <action>RESTART</action>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="MD-WORKFLOW">%s
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="MD-WORKFLOW">
        <task-priorities>
          <task-priority name="LAMMPS" priority="0"/>
          <task-priority name="CS_Calc" priority="1"/>
          <task-priority name="CNA_Calc" priority="2"/>
          <task-priority name="RDF_Calc" priority="3"/>
        </task-priorities>
        <task-dependencies>
          <task-dep name="CS_Calc" type="TIGHT" parent="LAMMPS"/>
          <task-dep name="CNA_Calc" type="TIGHT" parent="LAMMPS"/>
          <task-dep name="RDF_Calc" type="TIGHT" parent="LAMMPS"/>
        </task-dependencies>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`, monitor, applies)
}

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
	return RunLAMMPSVariant(seed, m, withDyflow, LAMMPSVariant{})
}

// LAMMPSVariant parameterizes RunLAMMPSVariant — the reusable-job form of
// the failure-resilience experiment.
type LAMMPSVariant struct {
	// XML, when non-empty, replaces the generated orchestration document.
	XML string
	// Configure, when set, is called on the freshly built world before the
	// run starts.
	Configure func(*World) error
}

// RunLAMMPSVariant executes the failure-resilience experiment with the
// variant hooks applied.
func RunLAMMPSVariant(seed int64, m apps.Machine, withDyflow bool, v LAMMPSVariant) (*LAMMPSResult, error) {
	cfg := apps.LAMMPSConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := w.SV.Compose(apps.LAMMPSWorkflow(m)); err != nil {
		return nil, err
	}
	if withDyflow {
		xml := v.XML
		if xml == "" {
			xml = LAMMPSXML(m)
		}
		if err := w.StartOrchestration(xml, core.Options{}); err != nil {
			return nil, err
		}
	}
	if v.Configure != nil {
		if err := v.Configure(w); err != nil {
			return nil, err
		}
	}
	w.Launch(apps.LAMMPSWorkflowID)

	res := &LAMMPSResult{W: w, Machine: m, FailureAt: 10 * time.Minute}
	// Fail a node in the middle of the allocation 10 minutes in.
	res.FailedNode = "node003"
	w.Cluster.FailNodeAt(res.FailureAt, res.FailedNode)

	horizon := 3 * time.Hour
	for w.Sim.Now() < horizon {
		if err := w.Run(w.Sim.Now() + 10*time.Second); err != nil {
			return nil, err
		}
		if err := w.progress(); err != nil {
			return nil, err
		}
		inst := w.SV.Instance(apps.LAMMPSWorkflowID, "LAMMPS")
		if inst != nil && inst.State() == task.Completed && inst.GlobalStep() >= cfg.TotalSteps &&
			!w.SV.AnyRunning(apps.LAMMPSWorkflowID) {
			break
		}
		if w.Sim.Pending() == 0 {
			break
		}
		if !withDyflow && w.Sim.Now() > res.FailureAt+5*time.Minute {
			break // baseline: nothing will ever restart it
		}
	}
	w.Rec.CloseOpen()
	res.Makespan = w.Sim.Now()

	inst := w.SV.Instance(apps.LAMMPSWorkflowID, "LAMMPS")
	res.Completed = inst != nil && inst.State() == task.Completed && inst.GlobalStep() >= cfg.TotalSteps
	if len(w.Rec.Plans) > 0 {
		res.RecoveryResponse = w.Rec.Plans[0].ResponseTime()
	}
	// The resume step is the checkpoint the second incarnation started
	// from: its global step history begins there.
	if ivs := w.Rec.TaskIntervals(apps.LAMMPSWorkflowID, "LAMMPS"); len(ivs) > 1 && inst != nil {
		res.ResumeStep = inst.GlobalStep() - inst.StepsDone()
	}
	return res, nil
}
