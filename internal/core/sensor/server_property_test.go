package sensor

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
	"dyflow/internal/trace"
)

// refServer is the Monitor server's bookkeeping exactly as it stood before
// the per-series index: a map of latest values, a map of generation
// cursors, and derivations that walk every series, pick the group's keys
// and sort them by task. Server must be indistinguishable from it.
type refServer struct {
	cfg       *spec.Config
	last      map[Key]Metric
	lastGen   map[Key]sim.Time
	lags      map[string]*stats.Welford
	forwarded int
	repolled  int
}

func newRefServer(cfg *spec.Config) *refServer {
	return &refServer{cfg: cfg, last: map[Key]Metric{}, lastGen: map[Key]sim.Time{}, lags: map[string]*stats.Welford{}}
}

// process returns the metrics the batch forwards and the wire messages.
func (sv *refServer) process(batch Batch, now sim.Time) ([]Metric, []MetricMsg) {
	var out []Metric
	for _, u := range batch.Updates {
		g, err := spec.ParseGranularity(u.Granularity)
		if err != nil {
			continue
		}
		def := sv.cfg.Sensors[u.Sensor]
		if def == nil {
			continue
		}
		m := Metric{
			Key:   Key{Workflow: u.Workflow, Task: u.Task, Sensor: u.Sensor, Granularity: g, Node: u.Node},
			Value: u.Value, Step: u.Step, GeneratedAt: sim.Time(u.GeneratedAt), ObservedAt: now,
		}
		m = sv.applyJoin(def, m)
		sv.last[m.Key] = m
		if def.HasGranularity(g) {
			out = append(out, m)
		}
		for _, grp := range def.Groups {
			switch grp.Granularity {
			case spec.GranWorkflow:
				if g == spec.GranTask {
					if dm, ok := sv.deriveWorkflow(def, grp, m); ok {
						sv.last[dm.Key] = dm
						out = append(out, dm)
					}
				}
			case spec.GranNodeWorkflow:
				if g == spec.GranNodeTask {
					if dm, ok := sv.deriveNodeWorkflow(def, grp, m); ok {
						sv.last[dm.Key] = dm
						out = append(out, dm)
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	msgs := make([]MetricMsg, len(out))
	for i, m := range out {
		msgs[i] = m.ToMsg()
		if prev, seen := sv.lastGen[m.Key]; seen && prev == m.GeneratedAt {
			sv.repolled++
			continue
		}
		sv.forwarded++
		sv.lastGen[m.Key] = m.GeneratedAt
		w, ok := sv.lags[m.Key.Sensor]
		if !ok {
			w = &stats.Welford{}
			sv.lags[m.Key.Sensor] = w
		}
		if m.ObservedAt >= m.GeneratedAt {
			w.Add((m.ObservedAt - m.GeneratedAt).Seconds())
		}
	}
	return out, msgs
}

func (sv *refServer) applyJoin(def *spec.SensorDef, m Metric) Metric {
	if def.Join == nil {
		return m
	}
	ok := Key{Workflow: m.Key.Workflow, Task: m.Key.Task, Sensor: def.Join.SensorID, Granularity: m.Key.Granularity, Node: m.Key.Node}
	if def.Join.Granularity != nil {
		ok.Granularity = *def.Join.Granularity
		switch ok.Granularity {
		case spec.GranWorkflow:
			ok.Task, ok.Node = "", ""
		case spec.GranNodeWorkflow:
			ok.Task = ""
		}
	}
	other, found := sv.last[ok]
	if !found {
		return m
	}
	m.Value = def.Join.Op.Apply(m.Value, other.Value)
	return m
}

func (sv *refServer) deriveWorkflow(def *spec.SensorDef, grp spec.GroupDef, trigger Metric) (Metric, bool) {
	var vals []float64
	var keys []Key
	for k := range sv.last {
		if k.Workflow == trigger.Key.Workflow && k.Sensor == def.ID && k.Granularity == spec.GranTask {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Task < keys[j].Task })
	maxStep := 0
	var genAt sim.Time
	for _, k := range keys {
		m := sv.last[k]
		vals = append(vals, m.Value)
		if m.Step > maxStep {
			maxStep = m.Step
		}
		if m.GeneratedAt > genAt {
			genAt = m.GeneratedAt
		}
	}
	v, ok := stats.Reduce(grp.Reduction, vals)
	if !ok {
		return Metric{}, false
	}
	return Metric{
		Key:   Key{Workflow: trigger.Key.Workflow, Sensor: def.ID, Granularity: spec.GranWorkflow},
		Value: v, Step: maxStep, GeneratedAt: genAt, ObservedAt: trigger.ObservedAt,
	}, true
}

func (sv *refServer) deriveNodeWorkflow(def *spec.SensorDef, grp spec.GroupDef, trigger Metric) (Metric, bool) {
	var vals []float64
	var keys []Key
	for k := range sv.last {
		if k.Workflow == trigger.Key.Workflow && k.Sensor == def.ID &&
			k.Granularity == spec.GranNodeTask && k.Node == trigger.Key.Node {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Task < keys[j].Task })
	var genAt sim.Time
	for _, k := range keys {
		m := sv.last[k]
		vals = append(vals, m.Value)
		if m.GeneratedAt > genAt {
			genAt = m.GeneratedAt
		}
	}
	v, ok := stats.Reduce(grp.Reduction, vals)
	if !ok {
		return Metric{}, false
	}
	return Metric{
		Key:   Key{Workflow: trigger.Key.Workflow, Sensor: def.ID, Granularity: spec.GranNodeWorkflow, Node: trigger.Key.Node},
		Value: v, Step: trigger.Step, GeneratedAt: genAt, ObservedAt: trigger.ObservedAt,
	}, true
}

// snapshot renders the reference state as the server's snapshot would.
func (sv *refServer) snapshot() ServerSnapshot {
	var snap ServerSnapshot
	for k, m := range sv.last {
		snap.Last = append(snap.Last, SeriesEntry{Key: k, Metric: m})
	}
	sort.Slice(snap.Last, func(i, j int) bool { return keyLess(snap.Last[i].Key, snap.Last[j].Key) })
	for k, at := range sv.lastGen {
		snap.LastGen = append(snap.LastGen, GenEntry{Key: k, At: at})
	}
	sort.Slice(snap.LastGen, func(i, j int) bool { return keyLess(snap.LastGen[i].Key, snap.LastGen[j].Key) })
	for id, w := range sv.lags {
		snap.Lags = append(snap.Lags, LagEntry{Sensor: id, Lag: w.State()})
	}
	sort.Slice(snap.Lags, func(i, j int) bool { return snap.Lags[i].Sensor < snap.Lags[j].Sensor })
	return snap
}

// deriveCfg exercises every derivation shape: order-sensitive reductions
// (SLOPE, FIRST, LAST) at workflow and node-workflow granularity, a joined
// sensor, a join against a workflow front, and a sensor forwarding only its
// workflow series.
const deriveCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="A" type="ADIOS2">
        <group-by>
          <group granularity="task" reduction-operation="AVG"/>
          <group granularity="workflow" reduction-operation="SLOPE"/>
          <group granularity="node-task" reduction-operation="SUM"/>
          <group granularity="node-workflow" reduction-operation="FIRST"/>
        </group-by>
      </sensor>
      <sensor id="B" type="ADIOS2">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="LAST"/>
        </group-by>
        <join sensor-id="A" operation="DIV"/>
      </sensor>
      <sensor id="C" type="ADIOS2">
        <group-by>
          <group granularity="task" reduction-operation="LAST"/>
          <group granularity="workflow" reduction-operation="MEDIAN"/>
        </group-by>
        <join sensor-id="A" granularity="workflow" operation="SUB"/>
      </sensor>
      <sensor id="D" type="ADIOS2">
        <group-by>
          <group granularity="node-task" reduction-operation="MAX"/>
          <group granularity="node-workflow" reduction-operation="SLOPE"/>
        </group-by>
      </sensor>
      <sensor id="E" type="ADIOS2">
        <group-by><group granularity="workflow" reduction-operation="SUM"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="t0" workflowId="W1" info-source="s.t0">
        <use-sensor sensor-id="A" info="a"/>
        <use-sensor sensor-id="B" info="b"/>
        <use-sensor sensor-id="C" info="c"/>
        <use-sensor sensor-id="D" info="d"/>
        <use-sensor sensor-id="E" info="e"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1"/>
        <sensors-to-use><use-sensor id="A" granularity="workflow"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="W1"><apply-policy policyId="P"><act-on-tasks>t0</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

// genBatch draws one batch: updates over two workflows, five tasks, three
// nodes and the five sensors (plus an unknown one and a bad granularity),
// about a third of them stale re-polls of the series' previous data.
func genBatch(rng *rand.Rand, now sim.Time, prevGen map[string]time.Duration) Batch {
	b := Batch{Client: "c0"}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		u := Update{
			Workflow: []string{"W1", "W2"}[rng.Intn(2)],
			Task:     fmt.Sprintf("t%d", rng.Intn(5)),
			Sensor:   []string{"A", "B", "C", "D", "E", "A", "B", "X"}[rng.Intn(8)],
			Value:    float64(1 + rng.Intn(100)),
			Step:     rng.Intn(50),
		}
		switch r := rng.Intn(20); {
		case r < 10:
			u.Granularity = "task"
		case r < 18:
			u.Granularity = "node-task"
			u.Node = fmt.Sprintf("n%d", rng.Intn(3))
		case r < 19:
			u.Granularity = "workflow"
		default:
			u.Granularity = "bogus"
		}
		series := u.Workflow + "/" + u.Task + "/" + u.Sensor + "/" + u.Granularity + "/" + u.Node
		if at, ok := prevGen[series]; ok && rng.Intn(3) == 0 {
			u.GeneratedAt = at
		} else {
			u.GeneratedAt = time.Duration(now) - time.Duration(rng.Intn(3000))*time.Millisecond
			prevGen[series] = u.GeneratedAt
		}
		b.Updates = append(b.Updates, u)
	}
	return b
}

// TestProperty_ServerDerive_EqualsScan: over seeded batch sequences —
// tasks, nodes, joins, stale re-polls, batches re-sent unchanged as a
// client re-sends a stale disk scan's, and a snapshot/restore midway — the
// indexed server forwards what the walk-every-series reference forwards,
// puts the same messages on the wire, Decision reads the reference's
// metrics off them (ObservedAt from the envelope's SentAt), and the server
// ends with the same counters, lag statistics and snapshot bytes. Decision
// is drained only every few batches, so messages sent earlier are still in
// its queue when the server builds the next ones — and when it re-sends
// one of them.
func TestProperty_ServerDerive_EqualsScan(t *testing.T) {
	cfg, err := spec.CompileString(deriveCfg)
	if err != nil {
		t.Fatal(err)
	}
	envelopes, resent := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		bus := msg.NewBus(s)
		dec := bus.Endpoint("decision")
		// The recorder outlives the server swap below, as the
		// orchestrator's does: the counters are its.
		tr := trace.New()
		sv := NewServer(s, bus, "monitor-server", "decision", cfg)
		sv.SetTracer(tr)
		var got []Metric
		sv.OnForward(func(ms []Metric) { got = append(got, ms...) })
		ref := newRefServer(cfg)
		var wantMsgs []MetricMsg
		var wantMetrics []Metric
		prevGen := map[string]time.Duration{}
		var batch Batch
		sent := map[*MetricMsg]bool{} // the payloads Decision received

		const batches = 80
		for i := 0; i < batches; i++ {
			step := fmt.Sprintf("seed %d batch %d", seed, i)
			if err := s.Run(s.Now() + time.Duration(1+rng.Intn(2000))*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if i == batches/2 {
				// Restore a fresh server from a JSON round trip of the
				// snapshot: it must re-snapshot to the same bytes and carry
				// on exactly as the one it replaces.
				before, err := json.Marshal(sv.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				var snap ServerSnapshot
				if err := json.Unmarshal(before, &snap); err != nil {
					t.Fatal(err)
				}
				sv = NewServer(s, bus, "monitor-server", "decision", cfg)
				sv.SetTracer(tr)
				sv.OnForward(func(ms []Metric) { got = append(got, ms...) })
				sv.Restore(snap)
				if after, _ := json.Marshal(sv.Snapshot()); string(after) != string(before) {
					t.Fatalf("%s: snapshot after restore differs:\n%s\nwas\n%s", step, after, before)
				}
			}
			if i == 0 || rng.Intn(3) != 0 {
				batch = genBatch(rng, s.Now(), prevGen)
			} // else the client re-sends its last batch, unchanged
			sv.process(batch)
			out, msgs := ref.process(batch, s.Now())
			wantMsgs = append(wantMsgs, msgs...)
			wantMetrics = append(wantMetrics, out...)
			if (len(got) > 0 || len(out) > 0) && !reflect.DeepEqual(got, out) {
				t.Fatalf("%s: forwarded %v, reference %v", step, got, out)
			}
			got = got[:0]
			if rng.Intn(4) != 0 {
				continue // leave the sent messages queued
			}
			if err := s.Run(s.Now()); err != nil {
				t.Fatal(err)
			}
			var wire []MetricMsg
			var metrics []Metric
			for {
				env, ok := dec.TryRecv()
				if !ok {
					break
				}
				ms, err := msg.Payload[[]MetricMsg](&env)
				if err != nil {
					t.Fatal(err)
				}
				envelopes++
				if sent[&ms[0]] {
					resent++
				}
				sent[&ms[0]] = true
				wire = append(wire, ms...)
				for _, w := range ms {
					m, err := FromMsg(w, env.SentAt)
					if err != nil {
						t.Fatal(err)
					}
					metrics = append(metrics, m)
				}
			}
			if (len(wire) > 0 || len(wantMsgs) > 0) && !reflect.DeepEqual(wire, wantMsgs) {
				t.Fatalf("%s: Decision received %v, reference sent %v", step, wire, wantMsgs)
			}
			if (len(metrics) > 0 || len(wantMetrics) > 0) && !reflect.DeepEqual(metrics, wantMetrics) {
				t.Fatalf("%s: Decision read %v, reference forwarded %v", step, metrics, wantMetrics)
			}
			wantMsgs, wantMetrics = wantMsgs[:0], wantMetrics[:0]
		}

		if fw, rp := tr.Counter("monitor.forwarded"), tr.Counter("monitor.repolled"); fw != int64(ref.forwarded) || rp != int64(ref.repolled) {
			t.Fatalf("seed %d: forwarded/repolled = %d/%d, reference %d/%d", seed, fw, rp, ref.forwarded, ref.repolled)
		}
		for _, id := range []string{"A", "B", "C", "D", "E", "X"} {
			want := (&stats.Welford{}).State()
			if w, ok := ref.lags[id]; ok {
				want = w.State()
			}
			if got := sv.Lag(id).State(); got != want {
				t.Fatalf("seed %d: Lag(%s) = %+v, reference %+v", seed, id, got, want)
			}
		}
		gotSnap, err := json.Marshal(sv.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		wantSnap, err := json.Marshal(ref.snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotSnap) != string(wantSnap) {
			t.Fatalf("seed %d: snapshot\n%s\nreference\n%s", seed, gotSnap, wantSnap)
		}
	}
	if resent == 0 || resent >= envelopes {
		t.Fatalf("%d of %d envelopes re-sent a payload; the drive must exercise both paths", resent, envelopes)
	}
	t.Logf("%d envelopes, %d re-sent", envelopes, resent)
}

// TestStaleForwardAllocatesNothing: the server side of a stale re-poll —
// a client re-sending the batch of an unchanged disk scan, whose task
// series and derived workflow series both forward the values they last
// did — re-sends the payload it built then: processing the batch, the
// counters and the delivery to Decision make no allocation.
func TestStaleForwardAllocatesNothing(t *testing.T) {
	cfg, err := spec.CompileString(nstepsCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	dec := bus.Endpoint("decision")
	var buf []msg.Envelope
	s.Spawn("decision", func(p *sim.Proc) {
		for {
			batch, err := dec.RecvBatch(p, buf[:0])
			if err != nil {
				return
			}
			buf = batch
		}
	})
	sv := NewServer(s, bus, "monitor-server", "decision", cfg)
	sv.SetTracer(trace.New())
	batch := Batch{Client: "client0", Updates: []Update{{
		Workflow: "FUSION", Task: "XGC1", Sensor: "NSTEPS", Granularity: "task",
		Value: 374, Step: 374, GeneratedAt: time.Second,
	}}}
	forward := func() {
		sv.process(batch)
		if err := s.Run(s.Now()); err != nil {
			t.Fatal(err)
		}
	}
	forward()
	forward()
	if n := testing.AllocsPerRun(100, forward); n != 0 {
		t.Errorf("a stale forward allocates %v times, want 0", n)
	}
	if got := len(buf); got != 1 {
		t.Fatalf("Decision drained %d envelopes in the last wake, want 1", got)
	}
	ms, err := msg.Payload[[]MetricMsg](&buf[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Granularity != "task" || ms[1].Granularity != "workflow" || ms[1].Value != 374 {
		t.Fatalf("the stale forward carried %+v, want the task and the workflow series at 374", ms)
	}
}
