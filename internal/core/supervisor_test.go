package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
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

// crashStage takes a stage down as a panic in its own process would: the
// stage's processes end, and a process spawned under its guard panics.
func crashStage(o *Orchestrator, stage string) {
	switch stage {
	case StageMonitorServer:
		o.Server.Stop()
	case StageMonitorClient:
		o.Client.Stop()
	case StageDecision:
		o.Decision.Stop()
	case StageArbiter:
		o.Arbiter.Stop()
	}
	o.Supervisor.spawner(stage)(stage+"-crash", func(*sim.Proc) {
		panic("injected stage fault")
	})
}

var allStages = []string{StageMonitorServer, StageMonitorClient, StageDecision, StageArbiter}

// startPaceRun starts a pace orchestrator and launches its workflow at the
// first instant the world runs.
func startPaceRun(t *testing.T) (*world, *Orchestrator) {
	w := newWorld(t, 2)
	composePaceWorkflow(t, w)
	o := newPaceOrchestrator(t, w, Options{})
	o.Start()
	w.s.Spawn("driver", func(p *sim.Proc) {
		if err := w.sv.Launch(p, "WF"); err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	return w, o
}

// A panic inside a supervised stage process must not fail the simulation:
// the supervisor absorbs it, counts it in dyflow_stage_restarts_total, and
// restarts the stage after its backoff, after which the pipeline still
// adapts the workflow. Each stage crashes at 5 s, before Ana's first step
// is measured, so the resize needs the crashed stage back.
func TestSupervisorAbsorbsStagePanic(t *testing.T) {
	for _, stage := range allStages {
		t.Run(stage, func(t *testing.T) {
			w, o := startPaceRun(t)
			w.s.At(5*time.Second, func() { crashStage(o, stage) })

			if err := w.s.Run(10 * time.Minute); err != nil {
				t.Fatalf("panic escaped the supervisor: %v", err)
			}
			if got := restartSeries(o); len(got) != 1 || got[0].Labels["stage"] != stage || got[0].Labels["reason"] != "panic" || got[0].Value != 1 {
				t.Fatalf("dyflow_stage_restarts_total = %+v, want one {stage=%s, reason=panic} series at 1", got, stage)
			}
			if g := o.Supervisor.stages[stage]; g.down || g.restarts != 1 {
				t.Fatalf("%s: down = %v after %d restarts, want up after 1", stage, g.down, g.restarts)
			}
			// The restarted pipeline still did its job: the under-provisioned
			// Ana got resized.
			if len(*w.rounds) == 0 {
				t.Fatal("no arbitration rounds after the stage restart")
			}
			if got := w.sv.Instance("WF", "Ana").Placement.Procs(); got < 8 {
				t.Fatalf("Ana live procs = %d, want >= 8 despite the stage panic", got)
			}
			o.Stop()
		})
	}
}

// restartSeries returns the dyflow_stage_restarts_total series.
func restartSeries(o *Orchestrator) []obs.SeriesSnapshot {
	for _, m := range o.Trace.Registry().Snapshot().Metrics {
		if m.Name == "dyflow_stage_restarts_total" {
			return m.Series
		}
	}
	return nil
}

// A stage that panics after Stop is not restarted: Stop disarms the
// supervisor before it stops the stages.
func TestSupervisorStoppedSchedulesNoRestart(t *testing.T) {
	w := newWorld(t, 2)
	composePaceWorkflow(t, w)
	o := newPaceOrchestrator(t, w, Options{})
	o.Start()
	if err := w.s.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	o.Stop()
	o.Supervisor.spawner(StageDecision)("decision-bomb", func(*sim.Proc) {
		panic("injected stage fault")
	})
	if err := w.s.Run(5 * time.Minute); err != nil {
		t.Fatalf("panic escaped the supervisor: %v", err)
	}
	if v, _ := o.Trace.Registry().Value("dyflow_stage_restarts_total"); v != 0 {
		t.Fatalf("dyflow_stage_restarts_total = %v after a panic past Stop, want 0", v)
	}
	if g := o.Supervisor.stages[StageDecision]; g.down || g.restarts != 0 {
		t.Fatalf("decision: down = %v after %d restarts, want no restart armed", g.down, g.restarts)
	}
}

// inboxStage names the stage that reads each endpoint-fed inbox.
var inboxStage = map[string]string{
	EndpointMonitorServer: StageMonitorServer,
	EndpointDecision:      StageDecision,
	EndpointArbiter:       StageArbiter,
}

// inboxSample is one check of the drain invariant, taken between two
// instants: stalled names the first endpoint holding a queued message
// although its stage is up and not mid-round; downHeld counts endpoints
// holding messages while their stage awaits a restart.
func inboxSample(o *Orchestrator) (stalled string, downHeld int) {
	for _, ep := range o.Bus.Snapshot().Endpoints {
		if len(ep.Queue) == 0 {
			continue
		}
		if g := o.Supervisor.stages[inboxStage[ep.Name]]; g != nil && g.down {
			downHeld++
			continue
		}
		if ep.Name == EndpointArbiter && o.Arbiter.Busy() {
			continue
		}
		if stalled == "" {
			stalled = ep.Name
		}
	}
	return stalled, downHeld
}

// TestProperty_Supervisor_InboxesDrainWithinInstant: a stage that is up
// and not mid-round drains its inbox within the instant a message arrives,
// which is why the supervisor restarts panicked stages only. Sampled every
// 30 s over a run whose Monitor server crash-loops until its backoff spans
// whole samples, the invariant holds at every sample; a planted stall, a
// decision stage that sleeps 3 min with messages queued, fails it.
// (internal/exp's test of the same name samples every job scenario.)
func TestProperty_Supervisor_InboxesDrainWithinInstant(t *testing.T) {
	const every = 30 * time.Second
	// run drives a fresh pace orchestrator for 15 min, sampling the
	// inboxes at each 30 s boundary and then calling perturb. It returns
	// the stalls found and the queued messages held by down stages.
	run := func(t *testing.T, perturb func(o *Orchestrator, now time.Duration)) (*Orchestrator, []string, int) {
		var stalls []string
		downHeld := 0
		w, o := startPaceRun(t)
		for now := every; now <= 15*time.Minute; now += every {
			if err := w.s.Run(now); err != nil {
				t.Fatal(err)
			}
			stalled, held := inboxSample(o)
			if stalled != "" {
				stalls = append(stalls, fmt.Sprintf("%v: %s", now, stalled))
			}
			downHeld += held
			perturb(o, now)
		}
		o.Stop()
		return o, stalls, downHeld
	}

	t.Run("stage panics", func(t *testing.T) {
		// The Monitor server crashes at each sample from 1 min on at which
		// it is up, maxRestarts times: its backoff doubles past 30 s, so
		// later samples find it down with client batches queued.
		crashes := 0
		o, stalls, downHeld := run(t, func(o *Orchestrator, now time.Duration) {
			if now >= time.Minute && crashes < maxRestarts && !o.Supervisor.stages[StageMonitorServer].down {
				crashStage(o, StageMonitorServer)
				crashes++
			}
		})
		if len(stalls) > 0 {
			t.Fatalf("inboxes held past their instant by an up, idle stage: %v", stalls)
		}
		if g := o.Supervisor.stages[StageMonitorServer]; g.restarts != maxRestarts {
			t.Fatalf("monitor-server restarts = %d, want %d", g.restarts, maxRestarts)
		}
		if downHeld == 0 {
			t.Fatal("no sample found a stage awaiting its restart with a queued message: the exemption went untested")
		}
	})

	t.Run("planted stall fails it", func(t *testing.T) {
		_, stalls, _ := run(t, func(o *Orchestrator, now time.Duration) {
			if now != 2*time.Minute {
				return
			}
			// Decision's receiver is replaced by one that sleeps 3 min
			// before it reads its inbox.
			o.Decision.Stop()
			o.Supervisor.spawner(StageDecision)("decision-stall", func(p *sim.Proc) {
				if err := p.Sleep(3 * time.Minute); err != nil {
					return
				}
				ep := o.Bus.Endpoint(EndpointDecision)
				for env, ok := ep.TryRecv(); ok; env, ok = ep.TryRecv() {
					if l, err := msg.Payload[*sensor.MetricList](&env); err == nil {
						l.Release()
					}
				}
				o.Decision.Start()
			})
		})
		// Metrics reach Decision every Ana step (about 20 s), so every
		// sample inside the sleep finds one queued, and none after it.
		want := []string{"2m30s: decision", "3m0s: decision", "3m30s: decision", "4m0s: decision", "4m30s: decision"}
		if !slices.Equal(stalls, want) {
			t.Fatalf("stalls found = %v, want %v", stalls, want)
		}
	})
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
