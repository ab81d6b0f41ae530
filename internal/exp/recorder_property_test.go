package exp

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/sim"
)

// The reference: the metric half of Recorder exactly as it stood before
// keys were interned — one MetricPoint, key and all, appended to one slice
// per observation, and three readers that each walked that slice. Whatever
// the chunked, interned store does must be indistinguishable from this.

type refRecorder struct {
	Plans   []arbiter.Record
	Metrics []MetricPoint
}

func (r *refRecorder) forwarded(ms []sensor.Metric) {
	for _, m := range ms {
		r.Metrics = append(r.Metrics, MetricPoint{At: m.ObservedAt, Key: m.Key, Value: m.Value, Step: m.Step})
	}
}

func (r *refRecorder) series(workflow, taskName, sensorID string) []MetricPoint {
	var out []MetricPoint
	for _, m := range r.Metrics {
		if m.Key.Workflow == workflow && m.Key.Task == taskName && m.Key.Sensor == sensorID {
			out = append(out, m)
		}
	}
	return out
}

func (r *refRecorder) dumpMetrics() []MetricDump {
	var out []MetricDump
	for _, m := range r.Metrics {
		out = append(out, MetricDump{
			AtNS:     int64(m.At),
			Workflow: m.Key.Workflow,
			Task:     m.Key.Task,
			Sensor:   m.Key.Sensor,
			Gran:     m.Key.Granularity.String(),
			Value:    m.Value,
		})
	}
	return out
}

func (r *refRecorder) paceBeforeAfter(workflow string) (before, after float64) {
	var firstPlan, lastDone sim.Time
	if len(r.Plans) > 0 {
		firstPlan = r.Plans[0].ReceivedAt
		lastDone = r.Plans[len(r.Plans)-1].ExecutedAt
	}
	var pre []float64
	var na int
	for _, m := range r.Metrics {
		if m.Key.Workflow != workflow || m.Key.Sensor != "PACE" {
			continue
		}
		switch {
		case firstPlan == 0 || m.At < firstPlan:
			pre = append(pre, m.Value)
		case m.At > lastDone:
			after += m.Value
			na++
		}
	}
	const steady = 6
	if len(pre) > steady {
		pre = pre[len(pre)-steady:]
	}
	for _, v := range pre {
		before += v
	}
	if len(pre) > 0 {
		before /= float64(len(pre))
	}
	if na > 0 {
		after /= float64(na)
	}
	return before, after
}

// The generator's vocabulary: few enough values that series repeat, and
// every field of a key varies so that none can be dropped from the intern
// table's identity unnoticed.
var (
	genWorkflows = []string{"GS-WORKFLOW", "MD-WORKFLOW"}
	genTasks     = []string{"", "Isosurface", "FFT"}
	genSensors   = []string{"PACE", "NSTEPS"}
	genGrans     = []spec.Granularity{spec.GranTask, spec.GranWorkflow, spec.GranNodeTask}
	genNodes     = []string{"", "node003"}
)

func genKey(rng *rand.Rand) sensor.Key {
	return sensor.Key{
		Workflow:    genWorkflows[rng.Intn(len(genWorkflows))],
		Task:        genTasks[rng.Intn(len(genTasks))],
		Sensor:      genSensors[rng.Intn(len(genSensors))],
		Granularity: genGrans[rng.Intn(len(genGrans))],
		Node:        genNodes[rng.Intn(len(genNodes))],
	}
}

// checkRecorder forwards the same generated batches — points in all — to a
// Recorder and to the reference and compares every way of reading them.
func checkRecorder(t *testing.T, rng *rand.Rand, points int) {
	t.Helper()
	rec, ref := NewRecorder(sim.New(0)), &refRecorder{}
	now := sim.Time(0)
	for n := 0; n < points; {
		now += time.Duration(rng.Intn(3)) * time.Second // same-instant batches happen
		batch := make([]sensor.Metric, rng.Intn(9))     // and so do empty ones
		if len(batch) > points-n {
			batch = batch[:points-n]
		}
		for i := range batch {
			batch[i] = sensor.Metric{Key: genKey(rng), Value: rng.Float64() * 50, Step: rng.Intn(500), ObservedAt: now}
		}
		n += len(batch)
		rec.forwarded(batch)
		ref.forwarded(batch)
	}
	for at := sim.Time(0); rng.Intn(3) > 0; { // zero or more plans, in order
		at += time.Duration(rng.Int63n(int64(now)/2 + 1))
		ref.Plans = append(ref.Plans, arbiter.Record{ReceivedAt: at, ExecutedAt: at + time.Duration(rng.Intn(90))*time.Second})
	}

	var arrived []MetricPoint
	rec.EachMetric(func(m MetricPoint) { arrived = append(arrived, m) })
	if !reflect.DeepEqual(arrived, ref.Metrics) {
		t.Fatalf("%d points: arrival order differs from the reference", points)
	}
	if got, want := rec.Dump().Metrics, ref.dumpMetrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d points: Dump().Metrics differs from the reference", points)
	}
	for _, wf := range genWorkflows {
		gb, ga := paceBeforeAfter(rec, ref.Plans, wf)
		if wb, wa := ref.paceBeforeAfter(wf); gb != wb || ga != wa {
			t.Fatalf("%d points: paceBeforeAfter(%s) = %v, %v; reference %v, %v", points, wf, gb, ga, wb, wa)
		}
		for _, task := range genTasks {
			for _, sn := range genSensors {
				if got, want := rec.Series(wf, task, sn), ref.series(wf, task, sn); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d points: Series(%s, %q, %s) differs from the reference", points, wf, task, sn)
				}
			}
		}
	}
}

func TestProperty_RecorderSeries_EqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5E21E5))
	// Around every way a chunk can end, then sizes at large.
	for _, points := range []int{0, 1, pointChunk - 1, pointChunk, pointChunk + 1, 2 * pointChunk, 2*pointChunk + 1} {
		checkRecorder(t, rng, points)
	}
	for i := 0; i < 150; i++ {
		checkRecorder(t, rng, rng.Intn(4*pointChunk))
	}
}

// TestRecorderPointSize pins the layout the series' memory cost rests on.
func TestRecorderPointSize(t *testing.T) {
	if size := reflect.TypeOf(point{}).Size(); size != 32 {
		t.Fatalf("a recorded point is %d bytes, want 32", size)
	}
}

// roundObserver is the reference plan log: every executed round as the
// arbiter announces it to OnRound, empty rounds skipped. An orchestrator
// killed and restored mid-run is a new arbiter, so the observer checks at
// the first instant of every driver tick — before any process of that tick
// runs — which orchestrator the world holds, and attaches to a new one.
type roundObserver struct {
	w        *World
	attached *core.Orchestrator
	plans    []arbiter.Record
}

func (r *roundObserver) attach() {
	if r.w.Orch == nil || r.w.Orch == r.attached {
		return
	}
	r.attached = r.w.Orch
	r.w.Orch.Arbiter.OnRound(func(ev arbiter.RoundEvent) {
		if !ev.Empty {
			r.plans = append(r.plans, ev.Record)
		}
	})
}

// configure is a RunJob configure hook that starts the observer on the
// world.
func (r *roundObserver) configure(w *World) error {
	r.w = w
	r.attach()
	w.OnProgress = func(now sim.Time) error {
		w.Sim.At(now, r.attach)
		return nil
	}
	return nil
}

// TestProperty_WorldPlans_EqualsRoundObserver: World.Plans — the arbiter's
// own record of executed rounds, carried through checkpoint and journal
// across a restore — is exactly the list an outside observer of every round
// rebuilds, for every scenario and for a campaign whose orchestrator is
// killed and restored twice.
func TestProperty_WorldPlans_EqualsRoundObserver(t *testing.T) {
	// A restored arbiter's records come back from the checkpoint's JSON, in
	// which an empty map and a nil one are the same, so the two lists are
	// compared in that form.
	encode := func(plans []arbiter.Record) string {
		b, err := json.Marshal(plans)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	check := func(name string, w *World, ref *roundObserver) {
		t.Helper()
		if got, want := encode(w.Plans()), encode(ref.plans); got != want {
			t.Errorf("%s: World.Plans has %d rounds, the round observer %d:\n%s\n%s", name, len(w.Plans()), len(ref.plans), got, want)
		}
	}
	for _, scenario := range Scenarios() {
		ref := &roundObserver{}
		if _, err := RunJob(Job{Scenario: scenario, Seed: 1}, ref.configure); err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		if len(ref.plans) == 0 {
			t.Errorf("%s: no round executed", scenario)
		}
		check(scenario, ref.w, ref)
	}

	opts := DefaultChaosOptions()
	opts.OrchKills = 2
	opts.CkptDir = t.TempDir()
	ref := &roundObserver{}
	res, err := RunChaosVariant(1, apps.Summit, opts, Variant{Configure: ref.configure})
	if err != nil {
		t.Fatal(err)
	}
	defer res.W.Close()
	if res.OrchKills != 2 {
		t.Fatalf("orchestrator kills fired = %d, want 2", res.OrchKills)
	}
	check("chaos with two orchestrator kills", res.W, ref)
}
