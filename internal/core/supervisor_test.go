package core

import (
	"testing"
	"time"

	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/spec"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// paceXML is a minimal but complete orchestration: one TAU stream sensor on
// Ana and a window-averaged ADDCPU policy.
const paceXML = `
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
</dyflow>`

func composePaceWorkflow(t *testing.T, w *world) {
	t.Helper()
	if err := w.sv.Compose(&wms.WorkflowSpec{
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
	}); err != nil {
		t.Fatal(err)
	}
}

// newPaceOrchestrator builds an orchestrator over the pace spec; the
// workflow must already be composed (composePaceWorkflow), kept separate so
// restore tests can rebuild the orchestrator over a live workflow.
func newPaceOrchestrator(t *testing.T, w *world, opts Options) *Orchestrator {
	t.Helper()
	cfg, err := spec.CompileString(paceXML)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Arbiter == (arbiter.Config{}) {
		opts.Arbiter = arbiter.Config{
			WarmupDelay: 60 * time.Second,
			SettleDelay: 60 * time.Second,
			PlanCost:    100 * time.Millisecond,
		}
	}
	return New(w.env, w.sv, cfg, opts, w.tr, w.rounds)
}

// A panic inside a supervised stage process must not fail the simulation:
// the supervisor absorbs it, counts it in dyflow_stage_restarts_total, and
// restarts the stage after its backoff, after which the pipeline still
// adapts the workflow.
func TestSupervisorAbsorbsStagePanic(t *testing.T) {
	w := newWorld(t, 2)
	composePaceWorkflow(t, w)
	o := newPaceOrchestrator(t, w, Options{})
	o.Start()
	w.s.Spawn("driver", func(p *sim.Proc) {
		if err := w.sv.Launch(p, "WF"); err != nil {
			t.Errorf("launch: %v", err)
		}
	})

	// Detonate inside the decision stage's process slot: the guarded
	// spawner is exactly what the real stage procs run under.
	w.s.At(30*time.Second, func() {
		o.Supervisor.spawner(StageDecision)("decision-bomb", func(p *sim.Proc) {
			if err := p.Sleep(time.Second); err != nil {
				return
			}
			panic("injected stage fault")
		})
	})

	if err := w.s.Run(10 * time.Minute); err != nil {
		t.Fatalf("panic escaped the supervisor: %v", err)
	}
	if v, ok := o.Trace.Registry().Value("dyflow_stage_restarts_total"); !ok || v != 1 {
		t.Fatalf("dyflow_stage_restarts_total = %v (ok=%v), want 1", v, ok)
	}
	// The restarted pipeline still did its job: the under-provisioned Ana
	// got resized.
	if len(*w.rounds) == 0 {
		t.Fatal("no arbitration rounds after the stage restart")
	}
	inst := w.sv.Instance("WF", "Ana")
	if got := inst.Placement.Procs(); got < 8 {
		t.Fatalf("Ana live procs = %d, want >= 8 despite the stage panic", got)
	}
	o.Stop()
}

// Restarts are bounded: a stage that panics forever is given up on after
// maxRestarts instead of spinning.
func TestSupervisorGivesUpAfterMaxRestarts(t *testing.T) {
	w := newWorld(t, 2)
	composePaceWorkflow(t, w)
	o := newPaceOrchestrator(t, w, Options{})
	o.Start()

	// A decision stage that dies instantly every time it's started: replace
	// the engine's processes with a bomb after each restart by detonating in
	// the stage slot repeatedly.
	var detonate func()
	detonate = func() {
		o.Supervisor.spawner(StageDecision)("decision-bomb", func(p *sim.Proc) {
			if err := p.Sleep(time.Second); err != nil {
				return
			}
			w.s.After(5*time.Second, func() {
				if !o.stopped {
					detonate()
				}
			})
			panic("injected stage fault")
		})
	}
	w.s.At(10*time.Second, detonate)

	// The backoffs of maxRestarts restarts sum to about four minutes; the
	// bomb keeps going off for ten more.
	if err := w.s.Run(15 * time.Minute); err != nil {
		t.Fatalf("panic escaped the supervisor: %v", err)
	}
	if v, _ := o.Trace.Registry().Value("dyflow_stage_restarts_total"); v != maxRestarts {
		t.Fatalf("dyflow_stage_restarts_total = %v, want capped at %d", v, maxRestarts)
	}
	if g := o.Supervisor.stages[StageDecision]; !g.down || g.restarts != maxRestarts {
		t.Fatalf("crash-looping stage: down = %v after %d restarts, want given up (down) after %d", g.down, g.restarts, maxRestarts)
	}
	o.Stop()
}

// Stop must be idempotent: double Stop and Stop-before-Start are no-ops,
// and Start after a premature Stop still works.
func TestStopIdempotent(t *testing.T) {
	w := newWorld(t, 2)
	composePaceWorkflow(t, w)
	o := newPaceOrchestrator(t, w, Options{})
	o.Stop() // before Start: nothing to tear down, must not panic
	o.Stop()
	o.Start()
	if err := w.s.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	o.Stop() // double Stop
	if err := w.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// A stopped orchestrator restarts cleanly (the supervisor and stages
	// come back).
	o.Start()
	if err := w.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	o.Stop()
}
