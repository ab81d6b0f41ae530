package sensor

import (
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/db"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
	"dyflow/internal/trace"
)

type fakeWorkload struct {
	placements map[string]task.Placement
	running    map[string]bool
}

func (f *fakeWorkload) Placement(wf, t string) task.Placement { return f.placements[wf+"/"+t] }
func (f *fakeWorkload) TaskRunning(wf, t string) bool         { return f.running[wf+"/"+t] }

type rig struct {
	s      *sim.Sim
	env    *task.Env
	bus    *msg.Bus
	server *Server
	tr     *trace.Recorder // the server's flight recorder: its counters
	dec    *msg.Endpoint   // decision endpoint capturing metrics
	wl     *fakeWorkload
}

func newRig(t *testing.T, cfg *spec.Config) *rig {
	t.Helper()
	s := sim.New(1)
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s)}
	bus := msg.NewBus(s)
	dec := bus.Endpoint("decision")
	server := NewServer(s, bus, "monitor-server", "decision", cfg)
	tr := trace.New()
	server.SetTracer(tr)
	server.Start()
	wl := &fakeWorkload{placements: map[string]task.Placement{}, running: map[string]bool{}}
	return &rig{s: s, env: env, bus: bus, server: server, tr: tr, dec: dec, wl: wl}
}

// drainMetrics collects all metrics delivered to the decision endpoint.
func (r *rig) drainMetrics(t *testing.T) []Metric {
	t.Helper()
	var out []Metric
	for {
		env, ok := r.dec.TryRecv()
		if !ok {
			return out
		}
		msgs, err := msg.Payload[[]MetricMsg](&env)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range msgs {
			m, err := FromMsg(w, env.SentAt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
	}
}

func compile(t *testing.T, xml string) *spec.Config {
	t.Helper()
	cfg, err := spec.CompileString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

const paceCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="node-task" reduction-operation="MAX"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Iso" workflowId="GS" info-source="tau.Iso">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="GS"><apply-policy policyId="P"><act-on-tasks>Iso</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

func TestTAUStreamSensorPipeline(t *testing.T) {
	cfg := compile(t, paceCfg)
	r := newRig(t, cfg)
	r.wl.placements["GS/Iso"] = task.Placement{"node000": 2, "node001": 2}
	r.wl.running["GS/Iso"] = true

	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	// Emit two profile records on the TAU stream.
	tau := r.env.Streams.Open("tau.Iso")
	r.s.Spawn("emitter", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		tau.Put(p, stream.Step{Index: 1, Vars: map[string]float64{"looptime": 40}, Array: []float64{38, 40, 36, 39}})
		p.Sleep(2 * time.Second)
		tau.Put(p, stream.Step{Index: 2, Vars: map[string]float64{"looptime": 42}, Array: []float64{41, 42, 40, 39}})
	})
	if err := r.s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	metrics := r.drainMetrics(t)

	var taskVals []float64
	nodeVals := map[string][]float64{}
	for _, m := range metrics {
		switch m.Key.Granularity {
		case spec.GranTask:
			if m.Key.Task != "Iso" || m.Key.Workflow != "GS" {
				t.Fatalf("bad key %v", m.Key)
			}
			taskVals = append(taskVals, m.Value)
		case spec.GranNodeTask:
			nodeVals[m.Key.Node] = append(nodeVals[m.Key.Node], m.Value)
		}
	}
	if len(taskVals) != 2 || taskVals[0] != 40 || taskVals[1] != 42 {
		t.Fatalf("task metrics = %v, want [40 42] (MAX of ranks)", taskVals)
	}
	// node000 hosts ranks 0-1, node001 ranks 2-3.
	if got := nodeVals["node000"]; len(got) != 2 || got[0] != 40 || got[1] != 42 {
		t.Fatalf("node000 = %v, want [40 42]", got)
	}
	if got := nodeVals["node001"]; len(got) != 2 || got[0] != 39 || got[1] != 40 {
		t.Fatalf("node001 = %v, want [39 40]", got)
	}
	// Lag: stream base cost (150ms) + 4 values (4ms) + zero bus latency.
	lag := r.server.Lag("PACE")
	if lag.N() == 0 || lag.Mean() < 0.1 || lag.Mean() > 1.0 {
		t.Fatalf("lag mean = %v s (n=%d), want sub-second", lag.Mean(), lag.N())
	}
}

const nstepsCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="NSTEPS" type="DISKSCAN">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="MAX"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="XGC1" workflowId="FUSION" info-source="out/xgc1.*.bp">
        <use-sensor sensor-id="NSTEPS" info="step"/>
      </monitor-task>
      <monitor-task name="XGCA" workflowId="FUSION" info-source="out/xgca.*.bp">
        <use-sensor sensor-id="NSTEPS" info="step"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="500"/>
        <sensors-to-use><use-sensor id="NSTEPS" granularity="workflow"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="FUSION"><apply-policy policyId="P"><act-on-tasks>XGCA</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

func TestDiskScanAndWorkflowDerivation(t *testing.T) {
	cfg := compile(t, nstepsCfg)
	r := newRig(t, cfg)
	r.wl.placements["FUSION/XGC1"] = task.Placement{"node000": 2}
	r.wl.placements["FUSION/XGCA"] = task.Placement{"node001": 2}

	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	// XGC1 writes outputs for steps 100, 200; XGCa for step 300.
	r.env.FS.Write("out/xgc1.100.bp", 1, map[string]float64{"step": 100})
	r.s.At(3*time.Second, func() {
		r.env.FS.Write("out/xgc1.200.bp", 1, map[string]float64{"step": 200})
		r.env.FS.Write("out/xgca.300.bp", 1, map[string]float64{"step": 300})
	})
	if err := r.s.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	metrics := r.drainMetrics(t)

	var lastWorkflow float64
	taskLast := map[string]float64{}
	sawWorkflow := false
	for _, m := range metrics {
		switch m.Key.Granularity {
		case spec.GranTask:
			taskLast[m.Key.Task] = m.Value
		case spec.GranWorkflow:
			sawWorkflow = true
			if m.Key.Task != "" {
				t.Fatalf("workflow metric carries task: %v", m.Key)
			}
			lastWorkflow = m.Value
		}
	}
	if !sawWorkflow {
		t.Fatal("no workflow-granularity metric derived")
	}
	if taskLast["XGC1"] != 200 || taskLast["XGCA"] != 300 {
		t.Fatalf("task metrics = %v", taskLast)
	}
	if lastWorkflow != 300 {
		t.Fatalf("workflow metric = %v, want 300 (MAX across tasks)", lastWorkflow)
	}
}

const statusCfg = `
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
      <policy id="P"><eval operation="GT" threshold="128"/>
        <sensors-to-use><use-sensor id="STATUS" granularity="task"/></sensors-to-use>
        <action>RESTART</action>
      </policy>
    </policies>
    <apply-on workflowId="MD"><apply-policy policyId="P"><act-on-tasks>LAMMPS</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

func TestErrorStatusSensor(t *testing.T) {
	cfg := compile(t, statusCfg)
	r := newRig(t, cfg)
	r.wl.placements["MD/LAMMPS"] = task.Placement{"node000": 4}

	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	// The scheduler writes the failure exit code at t=5s.
	r.s.At(5*time.Second, func() {
		r.env.FS.Write(task.StatusPath("MD", "LAMMPS"), 0, map[string]float64{"exitcode": 137})
	})
	if err := r.s.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	metrics := r.drainMetrics(t)
	if len(metrics) == 0 {
		t.Fatal("no STATUS metrics")
	}
	for _, m := range metrics {
		if m.Value != 137 {
			t.Fatalf("STATUS value = %v, want 137", m.Value)
		}
	}
	// Detection happens within poll + disk read of the write.
	first := metrics[0]
	lag := first.ObservedAt - 5*time.Second
	if lag <= 0 || lag > 2*time.Second {
		t.Fatalf("detection lag = %v, want (0, 2s]", lag)
	}
}

const joinCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="CYCLES" type="ADIOS2">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
      <sensor id="IPC" type="ADIOS2">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
        <join sensor-id="CYCLES" operation="DIV"/>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="T" workflowId="W" info-source="perf.T">
        <use-sensor sensor-id="CYCLES" info="cycles"/>
        <use-sensor sensor-id="IPC" info="instructions"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="LT" threshold="0.5"/>
        <sensors-to-use><use-sensor id="IPC" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>T</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

func TestJoinComputesDerivedMetric(t *testing.T) {
	cfg := compile(t, joinCfg)
	r := newRig(t, cfg)
	r.wl.placements["W/T"] = task.Placement{"node000": 1}
	r.wl.running["W/T"] = true

	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	perf := r.env.Streams.Open("perf.T")
	r.s.Spawn("emitter", func(p *sim.Proc) {
		p.Sleep(time.Second)
		// One record carrying both variables; each sensor reads its own.
		perf.Put(p, stream.Step{Index: 1, Vars: map[string]float64{"cycles": 1000, "instructions": 800}})
		p.Sleep(2 * time.Second)
		perf.Put(p, stream.Step{Index: 2, Vars: map[string]float64{"cycles": 1000, "instructions": 400}})
	})
	if err := r.s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	metrics := r.drainMetrics(t)
	var ipc []float64
	for _, m := range metrics {
		if m.Key.Sensor == "IPC" {
			ipc = append(ipc, m.Value)
		}
	}
	if len(ipc) != 2 {
		t.Fatalf("IPC metrics = %v", ipc)
	}
	if ipc[0] != 0.8 || ipc[1] != 0.4 {
		t.Fatalf("IPC = %v, want [0.8 0.4] (instructions DIV cycles)", ipc)
	}
}

func TestPreprocessDistillsArray(t *testing.T) {
	cfg := compile(t, `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="MEM" type="ADIOS2">
        <preprocess operation="SUM"/>
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="T" workflowId="W" info-source="mem.T">
        <use-sensor sensor-id="MEM"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="100"/>
        <sensors-to-use><use-sensor id="MEM" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>T</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`)
	r := newRig(t, cfg)
	r.wl.placements["W/T"] = task.Placement{"node000": 4}
	r.wl.running["W/T"] = true
	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	st := r.env.Streams.Open("mem.T")
	r.s.Spawn("emitter", func(p *sim.Proc) {
		p.Sleep(time.Second)
		st.Put(p, stream.Step{Index: 1, Array: []float64{10, 20, 30, 40}})
	})
	if err := r.s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	metrics := r.drainMetrics(t)
	if len(metrics) != 1 || metrics[0].Value != 100 {
		t.Fatalf("metrics = %+v, want single SUM=100", metrics)
	}
}

func TestServerDropsStaleBatches(t *testing.T) {
	cfg := compile(t, paceCfg)
	r := newRig(t, cfg)

	// Deliver batches with inverted latency so seq 2 arrives before seq 1.
	latencies := []time.Duration{400 * time.Millisecond, 10 * time.Millisecond}
	i := 0
	r.bus.Latency = func(from, to string) time.Duration {
		if from != "client0" {
			return 0
		}
		d := latencies[i%2]
		i++
		return d
	}
	client := r.bus.Endpoint("client0")
	r.s.Spawn("sender", func(p *sim.Proc) {
		client.Send("monitor-server", Batch{Client: "client0", Updates: []Update{
			{Workflow: "GS", Task: "Iso", Sensor: "PACE", Granularity: "task", Value: 1},
		}})
		client.Send("monitor-server", Batch{Client: "client0", Updates: []Update{
			{Workflow: "GS", Task: "Iso", Sensor: "PACE", Granularity: "task", Value: 2},
		}})
	})
	if err := r.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := r.tr.Counter("monitor.dropped_batches"); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	metrics := r.drainMetrics(t)
	if len(metrics) != 1 || metrics[0].Value != 2 {
		t.Fatalf("metrics = %+v, want only the fresh value 2", metrics)
	}
}

func TestClientReattachesAfterStreamRestart(t *testing.T) {
	cfg := compile(t, paceCfg)
	r := newRig(t, cfg)
	r.wl.placements["GS/Iso"] = task.Placement{"node000": 1}
	r.wl.running["GS/Iso"] = true
	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	r.s.Spawn("emitter", func(p *sim.Proc) {
		st := r.env.Streams.Open("tau.Iso")
		p.Sleep(time.Second)
		st.Put(p, stream.Step{Index: 1, Vars: map[string]float64{"looptime": 10}})
		st.Close() // task ends
		p.Sleep(3 * time.Second)
		st2 := r.env.Streams.Open("tau.Iso") // restart reopens
		p.Sleep(2 * time.Second)
		st2.Put(p, stream.Step{Index: 2, Vars: map[string]float64{"looptime": 20}})
		st2.Close()
	})
	if err := r.s.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	metrics := r.drainMetrics(t)
	var vals []float64
	for _, m := range metrics {
		if m.Key.Granularity == spec.GranTask {
			vals = append(vals, m.Value)
		}
	}
	if len(vals) != 2 || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("task metrics across restart = %v, want [10 20]", vals)
	}
}

const nodeWorkflowCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="MEM" type="TAUADIOS2">
        <group-by>
          <group granularity="node-task" reduction-operation="SUM"/>
          <group granularity="node-workflow" reduction-operation="SUM"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="A" workflowId="W" info-source="tau.A">
        <use-sensor sensor-id="MEM"/>
      </monitor-task>
      <monitor-task name="B" workflowId="W" info-source="tau.B">
        <use-sensor sensor-id="MEM"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1000"/>
        <sensors-to-use><use-sensor id="MEM" granularity="node-workflow"/></sensors-to-use>
        <action>RESTART</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>A</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

// TestNodeWorkflowDerivation: per-node memory from two co-located tasks is
// summed into a node-workflow series — the paper's "physical memory used by
// the workflow on each compute node" example.
func TestNodeWorkflowDerivation(t *testing.T) {
	cfg := compile(t, nodeWorkflowCfg)
	r := newRig(t, cfg)
	// Both tasks share node000; task A also spans node001.
	r.wl.placements["W/A"] = task.Placement{"node000": 1, "node001": 1}
	r.wl.placements["W/B"] = task.Placement{"node000": 2}
	r.wl.running["W/A"] = true
	r.wl.running["W/B"] = true
	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	sa := r.env.Streams.Open("tau.A")
	sb := r.env.Streams.Open("tau.B")
	r.s.Spawn("emitters", func(p *sim.Proc) {
		p.Sleep(time.Second)
		sa.Put(p, stream.Step{Index: 1, Array: []float64{100, 50}}) // rank0@node000, rank1@node001
		p.Sleep(time.Second)
		sb.Put(p, stream.Step{Index: 1, Array: []float64{30, 20}}) // both @node000
	})
	if err := r.s.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()

	m, ok := r.server.Latest(Key{Workflow: "W", Sensor: "MEM", Granularity: spec.GranNodeWorkflow, Node: "node000"})
	if !ok {
		t.Fatal("no node-workflow series for node000")
	}
	// node000 carries A's rank 0 (100) plus B's ranks (30+20).
	if m.Value != 150 {
		t.Fatalf("node000 workflow MEM = %v, want 150", m.Value)
	}
	m1, ok := r.server.Latest(Key{Workflow: "W", Sensor: "MEM", Granularity: spec.GranNodeWorkflow, Node: "node001"})
	if !ok || m1.Value != 50 {
		t.Fatalf("node001 workflow MEM = %v, %v, want 50", m1.Value, ok)
	}
}

// TestJoinAtWorkflowGranularity covers the LAG-style cross-granularity
// join: a task-level series joined against the workflow-level front.
func TestJoinAtWorkflowGranularity(t *testing.T) {
	cfg := compile(t, `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="NSTEPS" type="DISKSCAN">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="MAX"/>
        </group-by>
      </sensor>
      <sensor id="LAG" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
        <join sensor-id="NSTEPS" granularity="workflow" operation="SUB"/>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="A" workflowId="W" info-source="out/a.*">
        <use-sensor sensor-id="NSTEPS" info="step"/>
        <use-sensor sensor-id="LAG" info="step"/>
      </monitor-task>
      <monitor-task name="B" workflowId="W" info-source="out/b.*">
        <use-sensor sensor-id="NSTEPS" info="step"/>
        <use-sensor sensor-id="LAG" info="step"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="LT" threshold="0"/>
        <sensors-to-use><use-sensor id="LAG" granularity="task"/></sensors-to-use>
        <action>START</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P" assess-task="B"><act-on-tasks>B</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`)
	r := newRig(t, cfg)
	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	r.env.FS.Write("out/a.100", 1, map[string]float64{"step": 100})
	r.env.FS.Write("out/b.40", 1, map[string]float64{"step": 40})
	if err := r.s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()

	// B's LAG = own front (40) - workflow front (100) = -60.
	m, ok := r.server.Latest(Key{Workflow: "W", Task: "B", Sensor: "LAG", Granularity: spec.GranTask})
	if !ok {
		t.Fatal("no LAG series for B")
	}
	if m.Value != -60 {
		t.Fatalf("LAG(B) = %v, want -60", m.Value)
	}
	// A is at the front: LAG(A) = 0.
	ma, ok := r.server.Latest(Key{Workflow: "W", Task: "A", Sensor: "LAG", Granularity: spec.GranTask})
	if !ok || ma.Value != 0 {
		t.Fatalf("LAG(A) = %v, %v, want 0", ma.Value, ok)
	}
}

// TestFileSourceSensor covers the FILE source type: a single file polled
// for a named variable.
func TestFileSourceSensor(t *testing.T) {
	cfg := compile(t, `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PROGRESS" type="FILE">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Sim" workflowId="W" info-source="progress/sim">
        <use-sensor sensor-id="PROGRESS" info="step"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="100"/>
        <sensors-to-use><use-sensor id="PROGRESS" granularity="task"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>Sim</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`)
	r := newRig(t, cfg)
	r.wl.placements["W/Sim"] = task.Placement{"node000": 2}
	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	r.s.At(2*time.Second, func() { r.env.FS.WriteVar("progress/sim", "step", 42) })
	r.s.At(5*time.Second, func() { r.env.FS.WriteVar("progress/sim", "step", 57) })
	if err := r.s.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	m, ok := r.server.Latest(Key{Workflow: "W", Task: "Sim", Sensor: "PROGRESS", Granularity: spec.GranTask})
	if !ok || m.Value != 57 {
		t.Fatalf("PROGRESS = %v, %v, want 57", m.Value, ok)
	}
}

// TestDBSourceSensor covers the DB source type: the sensor polls the
// latest record published under a key in the in-cluster database service.
func TestDBSourceSensor(t *testing.T) {
	cfg := compile(t, `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE_DB" type="DB">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Sim" workflowId="W" info-source="pace/sim">
        <use-sensor sensor-id="PACE_DB"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="100"/>
        <sensors-to-use><use-sensor id="PACE_DB" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>Sim</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`)
	r := newRig(t, cfg)
	r.env.DB = db.New(r.s, 0)
	r.wl.placements["W/Sim"] = task.Placement{"node000": 2}
	client := NewClient("client0", r.env, r.bus, "monitor-server", cfg, cfg.Targets, r.wl, Costs{})
	client.Start()

	r.s.At(2*time.Second, func() { r.env.DB.Put("pace/sim", 3, 12.5) })
	r.s.At(5*time.Second, func() { r.env.DB.Put("pace/sim", 4, 13.5) })
	if err := r.s.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	client.Stop()
	m, ok := r.server.Latest(Key{Workflow: "W", Task: "Sim", Sensor: "PACE_DB", Granularity: spec.GranTask})
	if !ok || m.Value != 13.5 || m.Step != 4 {
		t.Fatalf("PACE_DB = %+v, %v", m, ok)
	}
	if m.GeneratedAt != 5*time.Second {
		t.Fatalf("genAt = %v, want publish time", m.GeneratedAt)
	}
}

func TestForwardedCountsDetectionsNotRepolls(t *testing.T) {
	cfg := compile(t, paceCfg)
	r := newRig(t, cfg)

	client := r.bus.Endpoint("client0")
	send := func(genAt time.Duration, v float64) {
		client.Send("monitor-server", Batch{Client: "client0", Updates: []Update{
			{Workflow: "GS", Task: "Iso", Sensor: "PACE", Granularity: "task",
				Value: v, GeneratedAt: sim.Time(genAt)},
		}})
	}
	r.s.At(1*time.Second, func() { send(1*time.Second, 10) }) // detection
	r.s.At(2*time.Second, func() { send(1*time.Second, 10) }) // re-poll of the same data
	r.s.At(3*time.Second, func() { send(1*time.Second, 10) }) // re-poll
	r.s.At(4*time.Second, func() { send(4*time.Second, 20) }) // new generation: detection
	if err := r.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}

	// All four metrics still travel to Decision; the counters split them
	// into fresh detections vs stale re-polls, matching the lag samples.
	if got := len(r.drainMetrics(t)); got != 4 {
		t.Fatalf("metrics delivered = %d, want 4", got)
	}
	if lag := r.server.Lag("PACE"); lag.N() != 2 {
		t.Fatalf("lag samples = %d, want 2 (one per detection)", lag.N())
	}
	if fw, rp := r.tr.Counter("monitor.forwarded"), r.tr.Counter("monitor.repolled"); fw != 2 || rp != 2 {
		t.Fatalf("counters = forwarded %d repolled %d, want 2 detections and 2 re-polls", fw, rp)
	}
}
