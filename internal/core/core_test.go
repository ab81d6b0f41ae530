package core

import (
	"testing"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/obs"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
)

type world struct {
	s   *sim.Sim
	c   *cluster.Cluster
	rm  *resmgr.Manager
	env *task.Env
	sv  *wms.Savanna
	tr  *trace.Recorder // the world's flight recorder, handed to each orchestrator
	// rounds is the world's round log, handed to each orchestrator too.
	rounds *arbiter.Rounds
}

func newWorld(t *testing.T, nodes int) *world {
	t.Helper()
	s := sim.New(1)
	c := cluster.Deepthought2(s, nodes)
	reg := obs.NewRegistry()
	rm := resmgr.New(c, reg)
	if _, err := rm.Allocate(nodes); err != nil {
		t.Fatal(err)
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	return &world{s: s, c: c, rm: rm, env: env, sv: wms.New(env, rm, reg), tr: trace.New(reg), rounds: new(arbiter.Rounds)}
}

// TestEndToEndPaceAdaptation drives the complete loop: a coupled workflow
// whose analysis is under-provisioned, a PACE sensor over the TAU stream, a
// window-averaged ADDCPU policy, arbitration with warm-up guard, and
// actuation restarting the analysis with more processes.
func TestEndToEndPaceAdaptation(t *testing.T) {
	w := newWorld(t, 2)
	// Sim: 10 procs, 1s/step for 2000 steps. Ana: 2 procs, 40s work ->
	// 20s/step; the 1-deep coupling buffer throttles Sim to Ana's pace.
	w.sv.Compose(&wms.WorkflowSpec{
		ID: "WF",
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{
					Name: "Sim", Workflow: "WF",
					Cost: task.Cost{Work: 10 * time.Second}, TotalSteps: 2000,
					ProducesTo: "wf.out",
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			{
				Spec: task.Spec{
					Name: "Ana", Workflow: "WF",
					Cost:         task.Cost{Work: 40 * time.Second},
					ConsumesFrom: "wf.out", ConsumeBuf: 1,
					Profile: true,
				},
				Procs: 2, ProcsPerNode: 1, AutoStart: true,
			},
		},
	})

	cfg, err := spec.CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Ana" workflowId="WF" info-source="tau.Ana">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC_ON_PACE">
        <eval operation="GT" threshold="10"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
        <history window="3" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="WF">
      <apply-policy policyId="INC_ON_PACE" assess-task="Ana">
        <act-on-tasks>Ana</act-on-tasks>
        <action-params><param key="adjust-by" value="6"/></action-params>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="WF">
        <task-priorities>
          <task-priority name="Sim" priority="0"/>
          <task-priority name="Ana" priority="1"/>
        </task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}

	o := New(w.env, w.sv, cfg, Options{
		Arbiter: arbiter.Config{
			WarmupDelay: 60 * time.Second,
			SettleDelay: 60 * time.Second,
			PlanCost:    100 * time.Millisecond,
		},
	}, w.tr, w.rounds)
	o.Start()
	w.s.Spawn("driver", func(p *sim.Proc) {
		if err := w.sv.Launch(p, "WF"); err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	if err := w.s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	recs := *w.rounds
	if len(recs) == 0 {
		t.Fatal("no arbitration rounds happened")
	}
	first := recs[0]
	if first.ReceivedAt < 60*time.Second {
		t.Fatalf("first plan at %v, inside the warm-up window", first.ReceivedAt)
	}
	var anaStart *arbiter.Op
	for i, op := range first.Plan.Ops {
		if op.Kind == arbiter.OpStart && op.Task == "Ana" {
			anaStart = &first.Plan.Ops[i]
		}
	}
	if anaStart == nil {
		t.Fatalf("first plan %v lacks the Ana resize", first.Plan.Ops)
	}
	if anaStart.Procs != 8 {
		t.Fatalf("Ana resized to %d procs, want 8 (2+6)", anaStart.Procs)
	}
	// The new incarnation actually runs with 8 procs.
	inst := w.sv.Instance("WF", "Ana")
	if got := inst.Placement.Procs(); got < 8 {
		t.Fatalf("Ana live procs = %d, want >= 8", got)
	}
	if inst.Incarnation < 1 {
		t.Fatal("Ana was never restarted")
	}
	// The response decomposition is recorded.
	if first.ExecutedAt <= first.PlannedAt || first.PlannedAt <= first.ReceivedAt {
		t.Fatalf("record times inconsistent: %+v", first)
	}
	// Actuation time is dominated by the graceful stop (Ana mid-step).
	if o.Trace.OpShare(arbiter.OpStop.String()) < 0.5 {
		t.Fatalf("stop share = %v, want graceful termination to dominate", o.Trace.OpShare(arbiter.OpStop.String()))
	}
	o.Stop()
}

// TestEndToEndFailureRestart drives the ERRORSTATUS path: a crashed task's
// exit code crosses 128, RESTART_ON_FAILURE fires, and arbitration restarts
// it excluding the dead node.
func TestEndToEndFailureRestart(t *testing.T) {
	w := newWorld(t, 3) // 1 spare node beyond the task's 2
	w.sv.Compose(&wms.WorkflowSpec{
		ID: "MD",
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{
					Name: "LAMMPS", Workflow: "MD",
					Cost: task.Cost{Work: 200 * time.Second}, TotalSteps: 1000,
					CheckpointEvery: 4, CheckpointKey: "ckpt/lammps",
					ResumeFromCheckpoint: true,
				},
				Procs: 20, ProcsPerNode: 10, AutoStart: true,
			},
		},
	})
	cfg, err := spec.CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="STATUS" type="ERRORSTATUS">
        <group-by><group granularity="task" reduction-operation="FIRST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="LAMMPS" workflowId="MD">
        <use-sensor sensor-id="STATUS" info="exitcode"/>
      </monitor-task>
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
    <apply-on workflowId="MD">
      <apply-policy policyId="RESTART_ON_FAILURE" assess-task="LAMMPS">
        <act-on-tasks>LAMMPS</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}
	o := New(w.env, w.sv, cfg, Options{
		Arbiter: arbiter.Config{
			WarmupDelay: 30 * time.Second,
			SettleDelay: 2 * time.Minute,
			PlanCost:    100 * time.Millisecond,
		},
	}, w.tr, w.rounds)
	o.Start()
	w.s.Spawn("driver", func(p *sim.Proc) { w.sv.Launch(p, "MD") })
	w.c.FailNodeAt(5*time.Minute, "node000")

	if err := w.s.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := *w.rounds
	if len(recs) == 0 {
		t.Fatal("no recovery plan executed")
	}
	rec := recs[0]
	var restart *arbiter.Op
	for i, op := range rec.Plan.Ops {
		if op.Kind == arbiter.OpStart && op.Task == "LAMMPS" {
			restart = &rec.Plan.Ops[i]
		}
	}
	if restart == nil {
		t.Fatalf("plan %v lacks LAMMPS restart", rec.Plan.Ops)
	}
	if restart.Procs != 20 {
		t.Fatalf("restart procs = %d, want 20", restart.Procs)
	}
	// The restarted incarnation avoids the failed node.
	inst := w.sv.Instance("MD", "LAMMPS")
	if inst.Placement["node000"] != 0 {
		t.Fatalf("restart placed procs on the failed node: %v", inst.Placement)
	}
	if !inst.Alive() && inst.State() != task.Completed {
		t.Fatalf("LAMMPS state = %v", inst.State())
	}
	// Recovery is fast: the restart plan executes in well under a minute
	// (the dead task has nothing to drain).
	if rec.ResponseTime() > 10*time.Second {
		t.Fatalf("recovery response = %v, want fast", rec.ResponseTime())
	}
	// It resumed from a checkpoint, not step 0.
	if inst.Alive() && inst.GlobalStep() > 0 && inst.StepsDone() >= inst.GlobalStep() {
		t.Fatalf("no checkpoint resume: steps=%d global=%d", inst.StepsDone(), inst.GlobalStep())
	}
	o.Stop()
}

// TestMultiWorkflowOrchestration: one DYFLOW instance orchestrates two
// independent workflows — a pace-adapted coupled pipeline and a
// failure-restarted solo task — with per-workflow rules and plans.
func TestMultiWorkflowOrchestration(t *testing.T) {
	w := newWorld(t, 4)
	if err := w.sv.Compose(&wms.WorkflowSpec{
		ID: "PIPE",
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{Name: "Sim", Workflow: "PIPE",
					Cost: task.Cost{Work: 10 * time.Second}, TotalSteps: 2000, ProducesTo: "pipe.out"},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			{
				Spec: task.Spec{Name: "Ana", Workflow: "PIPE",
					Cost: task.Cost{Work: 40 * time.Second}, ConsumesFrom: "pipe.out", ConsumeBuf: 1, Profile: true},
				Procs: 2, ProcsPerNode: 1, AutoStart: true,
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.sv.Compose(&wms.WorkflowSpec{
		ID: "SOLO",
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{Name: "Job", Workflow: "SOLO",
					Cost: task.Cost{Work: 20 * time.Second}, TotalSteps: 5000,
					CheckpointEvery: 10, CheckpointKey: "ckpt/job", ResumeFromCheckpoint: true},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
      <sensor id="STATUS" type="ERRORSTATUS">
        <group-by><group granularity="task" reduction-operation="FIRST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Ana" workflowId="PIPE" info-source="tau.Ana">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
      <monitor-task name="Job" workflowId="SOLO">
        <use-sensor sensor-id="STATUS" info="exitcode"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC">
        <eval operation="GT" threshold="10"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
        <history window="3" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>
      <policy id="RESTART_ON_FAILURE">
        <eval operation="GT" threshold="128"/>
        <sensors-to-use><use-sensor id="STATUS" granularity="task"/></sensors-to-use>
        <action>RESTART</action>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="PIPE">
      <apply-policy policyId="INC" assess-task="Ana">
        <act-on-tasks>Ana</act-on-tasks>
        <action-params><param key="adjust-by" value="6"/></action-params>
      </apply-policy>
    </apply-on>
    <apply-on workflowId="SOLO">
      <apply-policy policyId="RESTART_ON_FAILURE" assess-task="Job">
        <act-on-tasks>Job</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="PIPE">
        <task-priorities>
          <task-priority name="Sim" priority="0"/>
          <task-priority name="Ana" priority="1"/>
        </task-priorities>
      </rule-for>
      <rule-for workflowId="SOLO">
        <task-priorities><task-priority name="Job" priority="0"/></task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}
	o := New(w.env, w.sv, cfg, Options{Arbiter: arbiter.Config{
		WarmupDelay: 30 * time.Second, SettleDelay: 30 * time.Second,
		PlanCost: 100 * time.Millisecond, GatherWindow: 5 * time.Second,
	}}, w.tr, w.rounds)
	o.Start()
	w.s.Spawn("driver", func(p *sim.Proc) {
		w.sv.Launch(p, "PIPE")
		w.sv.Launch(p, "SOLO")
	})
	// SOLO's task crashes 3 minutes in (software fault, not a node loss).
	w.s.At(3*time.Minute, func() {
		w.sv.Instance("SOLO", "Job").Crash(139)
	})
	if err := w.s.Run(12 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// PIPE's analysis grew; SOLO's job restarted — independent plans.
	byWF := map[string]int{}
	for _, rec := range *w.rounds {
		byWF[rec.Workflow]++
	}
	if byWF["PIPE"] != 1 || byWF["SOLO"] != 1 {
		t.Fatalf("plans per workflow = %v, want 1 each", byWF)
	}
	if got := w.sv.Instance("PIPE", "Ana").Placement.Procs(); got != 8 {
		t.Fatalf("Ana procs = %d, want 8", got)
	}
	job := w.sv.Instance("SOLO", "Job")
	if job.Incarnation != 1 || !job.Alive() {
		t.Fatalf("Job incarnation = %d alive=%v, want restarted and running", job.Incarnation, job.Alive())
	}
	// The restart resumed from a checkpoint.
	if job.GlobalStep() <= job.StepsDone() {
		t.Fatalf("no checkpoint resume: global=%d steps=%d", job.GlobalStep(), job.StepsDone())
	}
	o.Stop()
}
