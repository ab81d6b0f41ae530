package sensor

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
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
	lags      map[string]*lagSum
	forwarded int
	repolled  int
}

func newRefServer(cfg *spec.Config) *refServer {
	return &refServer{cfg: cfg, last: map[Key]Metric{}, lastGen: map[Key]sim.Time{}, lags: map[string]*lagSum{}}
}

// lagSum is a sensor's detection lags as the flight recorder's histogram
// folds them: a count and a sum of seconds in arrival order.
type lagSum struct {
	n   int
	sum float64
}

// process returns the metrics the batch forwards and the wire messages.
func (sv *refServer) process(batch parentBatch, now sim.Time) ([]Metric, []parentMetricMsg) {
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
	msgs := make([]parentMetricMsg, len(out))
	for i, m := range out {
		msgs[i] = parentMetricMsg{
			Workflow: m.Key.Workflow, Task: m.Key.Task, Sensor: m.Key.Sensor,
			Granularity: m.Key.Granularity.String(), Node: m.Key.Node,
			Value: m.Value, Step: m.Step, GeneratedAt: int64(m.GeneratedAt),
		}
		if prev, seen := sv.lastGen[m.Key]; seen && prev == m.GeneratedAt {
			sv.repolled++
			continue
		}
		sv.forwarded++
		sv.lastGen[m.Key] = m.GeneratedAt
		if m.ObservedAt >= m.GeneratedAt {
			a := sv.lags[m.Key.Sensor]
			if a == nil {
				a = &lagSum{}
				sv.lags[m.Key.Sensor] = a
			}
			a.n++
			a.sum += (m.ObservedAt - m.GeneratedAt).Seconds()
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
// nodes and the five sensors (plus an unknown one), about a third of them
// stale re-polls of the series' previous data. A granularity that does not
// parse never reaches a server: restoring a message naming one fails.
func genBatch(rng *rand.Rand, now sim.Time, prevGen map[string]time.Duration) parentBatch {
	var b parentBatch
	for n := 1 + rng.Intn(6); n > 0; n-- {
		u := parentUpdate{
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
		default:
			u.Granularity = "workflow"
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

// jsonOf returns v's JSON encoding. Metrics and message records are
// compared by it: the server's metrics carry its descriptors, the
// reference's none, and the encoding spells out the key either way.
func jsonOf(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// msgRecords returns the records of messages.
func msgRecords(msgs []MetricMsg) []MetricMsgRecord {
	out := make([]MetricMsgRecord, len(msgs))
	for i, m := range msgs {
		out[i] = m.Record()
	}
	return out
}

// decodeJSON returns v encoded as JSON and decoded into a T.
func decodeJSON[T any](t testing.TB, v any) T {
	t.Helper()
	var out T
	if err := json.Unmarshal([]byte(jsonOf(t, v)), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProperty_ServerDerive_EqualsScan: over seeded batch sequences —
// tasks, nodes, joins, stale re-polls, batches re-sent unchanged as a
// client re-sends a stale disk scan's, and a snapshot/restore midway — the
// indexed server forwards what the walk-every-series reference forwards,
// puts the same messages on the wire, Decision reads the reference's
// metrics off them (ObservedAt from the envelope's SentAt), and the server
// ends with the same counters, lag statistics and snapshot bytes. Decision
// is drained only every few batches, so messages sent earlier are still in
// its queue when the server builds the next ones. Decision releases each
// list once it has read it, so the server recycles them. The server reads
// each batch decoded from the reference batch's JSON, a bad granularity
// among its updates.
func TestProperty_ServerDerive_EqualsScan(t *testing.T) {
	cfg, err := spec.CompileString(deriveCfg)
	if err != nil {
		t.Fatal(err)
	}
	envelopes := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		bus := msg.NewBus(s)
		dec := bus.Endpoint("decision")
		// The recorder outlives the server swap below, as the
		// orchestrator's does: the counters are its.
		tr := trace.New(obs.NewRegistry())
		sv := NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, tr)
		var got []Metric
		sv.OnForward(func(ms []Metric) { got = append(got, ms...) })
		ref := newRefServer(cfg)
		var wantMsgs []parentMetricMsg
		var wantMetrics []Metric
		prevGen := map[string]time.Duration{}
		var batch parentBatch
		var live Batch // batch as the server receives it, from its record

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
				sv = NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, tr)
				sv.OnForward(func(ms []Metric) { got = append(got, ms...) })
				sv.Restore(snap)
				if after, _ := json.Marshal(sv.Snapshot()); string(after) != string(before) {
					t.Fatalf("%s: snapshot after restore differs:\n%s\nwas\n%s", step, after, before)
				}
			}
			if i == 0 || rng.Intn(3) != 0 {
				batch = genBatch(rng, s.Now(), prevGen)
				var err error
				if live, err = decodeJSON[BatchRecord](t, batch).Live(); err != nil {
					t.Fatal(err)
				}
			} // else the client re-sends its last batch, unchanged
			sv.process(&live)
			out, msgs := ref.process(batch, s.Now())
			wantMsgs = append(wantMsgs, msgs...)
			wantMetrics = append(wantMetrics, out...)
			if (len(got) > 0 || len(out) > 0) && jsonOf(t, got) != jsonOf(t, out) {
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
				l, err := msg.Payload[*MetricList](&env)
				if err != nil {
					t.Fatal(err)
				}
				envelopes++
				wire = append(wire, l.Msgs...)
				for _, w := range l.Msgs {
					metrics = append(metrics, FromMsg(w, env.SentAt))
				}
				l.Release()
			}
			if (len(wire) > 0 || len(wantMsgs) > 0) && jsonOf(t, msgRecords(wire)) != jsonOf(t, wantMsgs) {
				t.Fatalf("%s: Decision received %v, reference sent %v", step, wire, wantMsgs)
			}
			if (len(metrics) > 0 || len(wantMetrics) > 0) && jsonOf(t, metrics) != jsonOf(t, wantMetrics) {
				t.Fatalf("%s: Decision read %v, reference forwarded %v", step, metrics, wantMetrics)
			}
			wantMsgs, wantMetrics = wantMsgs[:0], wantMetrics[:0]
		}

		if fw, rp := tr.Counter("monitor.forwarded"), tr.Counter("monitor.repolled"); fw != int64(ref.forwarded) || rp != int64(ref.repolled) {
			t.Fatalf("seed %d: forwarded/repolled = %d/%d, reference %d/%d", seed, fw, rp, ref.forwarded, ref.repolled)
		}
		counts := map[string]int{}
		for _, st := range tr.Report().SensorLags {
			counts[st.Label] = st.Count
		}
		for _, id := range []string{"A", "B", "C", "D", "E", "X"} {
			var want lagSum
			var wantMean time.Duration
			if a := ref.lags[id]; a != nil {
				want, wantMean = *a, time.Duration(math.Round(a.sum/float64(a.n)*float64(time.Second)))
			}
			if n, mean := counts[id], tr.SensorLagMean(id); n != want.n || mean != wantMean {
				t.Fatalf("seed %d: %s lags = %d, mean %v; reference %d, mean %v", seed, id, n, mean, want.n, wantMean)
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
	t.Logf("%d envelopes", envelopes)
}

// TestStaleForwardAllocatesNothing: the server side of a stale re-poll —
// a client re-sending the batch of an unchanged disk scan, whose task
// series and derived workflow series both forward the values they last
// did — fills a list recycled off its free list: processing the batch,
// the counters and the delivery to Decision make no allocation.
func TestStaleForwardAllocatesNothing(t *testing.T) {
	cfg, err := spec.CompileString(nstepsCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	last := decisionSink(t, s, bus)
	sv := NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, trace.New(obs.NewRegistry()))
	batch := &Batch{Updates: []Update{{
		Series: &Series{Key: Key{Workflow: "FUSION", Task: "XGC1", Sensor: "NSTEPS", Granularity: spec.GranTask}},
		Value:  374, Step: 374, GeneratedAt: time.Second,
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
	if ms := *last; len(ms) != 2 || ms[0].Series.Key.Granularity != spec.GranTask || ms[1].Series.Key.Granularity != spec.GranWorkflow || ms[1].Value != 374 {
		t.Fatalf("the stale forward carried %+v, want the task and the workflow series at 374", ms)
	}
}

// decisionSink spawns a stand-in for Decision's receive loop on bus's
// "decision" endpoint: it copies the messages of the last list it drained
// to the slice it returns a pointer to, and releases every list, as
// Decision does.
func decisionSink(t testing.TB, s *sim.Sim, bus *msg.Bus) *[]MetricMsg {
	dec := bus.Endpoint("decision")
	var buf []msg.Envelope
	last := new([]MetricMsg)
	s.Spawn("decision", func(p *sim.Proc) {
		for {
			batch, err := dec.RecvBatch(p, buf[:0])
			if err != nil {
				return
			}
			buf = batch
			for i := range batch {
				l, err := msg.Payload[*MetricList](&batch[i])
				if err != nil {
					t.Error(err)
					return
				}
				*last = append((*last)[:0], l.Msgs...)
				l.Release()
			}
		}
	})
	return last
}

// TestChangedForwardAllocatesNothing: a warm forward of one metric whose
// value changed fills the list it sends off the server's free list, which
// the list it replaced went back to once Decision released it: in steady
// state it allocates nothing, whatever the lengths of the series' key
// strings.
func TestChangedForwardAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	long := strings.Repeat("SENSOR", 40)
	cfg, err := spec.CompileString(strings.ReplaceAll(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="S" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
      <sensor id="LONG" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1e9"/>
        <sensors-to-use><use-sensor id="S" granularity="task"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P" assess-task="t"><act-on-tasks>t</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`, "LONG", long))
	if err != nil {
		t.Fatal(err)
	}
	forwardCost := func(k Key) (allocs float64, bytes uint64) {
		s := sim.New(1)
		bus := msg.NewBus(s)
		last := decisionSink(t, s, bus)
		sv := NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, trace.New(obs.NewRegistry()))
		batch := &Batch{Updates: []Update{{Series: &Series{Key: k}}}}
		forward := func() {
			u := &batch.Updates[0]
			u.Value++
			u.Step++
			u.GeneratedAt += time.Second
			sv.process(batch)
			if err := s.Run(s.Now()); err != nil {
				t.Fatal(err)
			}
		}
		forward()
		forward()
		allocs = testing.AllocsPerRun(100, forward)
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			forward()
		}
		runtime.ReadMemStats(&after)
		if ms := *last; len(ms) != 1 || ms[0].Series.Key != k || ms[0].Value != batch.Updates[0].Value {
			t.Fatalf("the forward carried %+v, want one message of %v at %v", ms, k, batch.Updates[0].Value)
		}
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	short := Key{Workflow: "W", Task: "t", Sensor: "S", Granularity: spec.GranTask}
	longKey := Key{Workflow: strings.Repeat("W", 300), Task: strings.Repeat("t", 300), Sensor: long, Granularity: spec.GranTask}
	a1, b1 := forwardCost(short)
	a2, b2 := forwardCost(longKey)
	if a1 != 0 || b1 != 0 || a2 != 0 || b2 != 0 {
		t.Errorf("a changed one-metric forward allocates %v times, %d bytes (%v, %d with long key strings); want none", a1, b1, a2, b2)
	}
}
