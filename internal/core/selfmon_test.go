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

// TestSelfMonitoringSensorFiresPolicy closes the self-observation loop: a
// dyflow-source sensor polls the orchestrator's own monitor.forwarded
// counter, the reading flows through the normal Monitor -> Decision ->
// Arbitration -> Actuation pipeline, and a GT policy on it stops a running
// task — policies reacting to orchestrator health exactly like they react
// to workflow telemetry.
func TestSelfMonitoringSensorFiresPolicy(t *testing.T) {
	w := newWorld(t, 2)
	w.sv.Compose(&wms.WorkflowSpec{
		ID: "WF",
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{
					Name: "Job", Workflow: "WF",
					Cost: task.Cost{Work: 10 * time.Second}, TotalSteps: 100000,
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
		},
	})

	// The SELF sensor reads monitor.forwarded: every forwarded batch —
	// including this sensor's own — raises it, so the series climbs
	// deterministically at the 1s poll cadence and crosses the threshold.
	cfg, err := spec.CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="SELF" type="DYFLOW">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Job" workflowId="WF">
        <use-sensor sensor-id="SELF" info="monitor.forwarded"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="STOP_ON_CHATTER">
        <eval operation="GT" threshold="40"/>
        <sensors-to-use><use-sensor id="SELF" granularity="task"/></sensors-to-use>
        <action>STOP</action>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="WF">
      <apply-policy policyId="STOP_ON_CHATTER" assess-task="Job">
        <act-on-tasks>Job</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="WF">
        <task-priorities><task-priority name="Job" priority="0"/></task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}

	o := New(w.env, w.sv, cfg, Options{
		Arbiter: arbiter.Config{
			WarmupDelay: 30 * time.Second,
			SettleDelay: 30 * time.Second,
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
		t.Fatal("self-monitoring policy never reached arbitration")
	}
	var stop *arbiter.Op
	for i, op := range recs[0].Plan.Ops {
		if op.Kind == arbiter.OpStop && op.Task == "Job" {
			stop = &recs[0].Plan.Ops[i]
		}
	}
	if stop == nil {
		t.Fatalf("plan %v lacks the Job stop", recs[0].Plan.Ops)
	}
	if w.sv.TaskRunning("WF", "Job") {
		t.Fatal("Job still running after self-monitoring STOP")
	}
	// The suggestion lifecycle attributes the action to the SELF sensor.
	found := false
	for _, sp := range o.Trace.Spans() {
		if sp.Sensor == "SELF" && sp.Policy == "STOP_ON_CHATTER" {
			found = true
		}
	}
	if !found {
		t.Fatal("no suggestion span attributed to the SELF sensor")
	}
	// The self-read value and the live counter agree in magnitude: the
	// forwarded counter kept climbing while the sensor was polling it.
	if o.Trace.Counter("monitor.forwarded") <= 40 {
		t.Fatalf("monitor.forwarded = %d, want > policy threshold",
			o.Trace.Counter("monitor.forwarded"))
	}
	o.Stop()
}

// TestSelfSourceArms reads one name of each kind a dyflow-source sensor
// can poll: a sensor's detection-lag quantiles (0 before its first
// detection), a bus endpoint's deepest queue, a registry family and a
// flight-recorder counter, which is also the fallback for unknown names.
func TestSelfSourceArms(t *testing.T) {
	w := newWorld(t, 1)
	o := New(w.env, w.sv, &spec.Config{}, Options{}, w.tr, w.rounds)
	o.Trace.SensorLag("PACE", time.Second)
	o.Trace.SensorLag("PACE", 2*time.Second)
	o.Trace.QueueDepth(EndpointDecision, 5)
	o.Trace.QueueDepth(EndpointDecision, 2)
	o.Trace.StageCounter("monitor.forwarded").Add(7)
	src := &selfSource{o: o}
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"sensor.lag_p50:PACE", 1},   // rank 1 of 2 lands in the 1s bucket
		{"sensor.lag_p99:PACE", 2.5}, // rank 2 lands in the 2.5s bucket
		{"sensor.lag_p50:IDLE", 0},   // no detection yet
		{"sensor.lag_p99:IDLE", 0},
		{"queue.max:" + EndpointDecision, 5},
		{"queue.max:nowhere", 0},
		{"dyflow_stage_events_total", 7},
		{"monitor.forwarded", 7},
		{"monitor.never_counted", 0},
	} {
		if got, ok := src.MetricValue(tc.name); !ok || got != tc.want {
			t.Errorf("MetricValue(%q) = %v, %v; want %v, true", tc.name, got, ok, tc.want)
		}
	}
}
