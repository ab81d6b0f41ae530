package exp

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

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
		plan := arbiter.Record{ReceivedAt: at, ExecutedAt: at + time.Duration(rng.Intn(90))*time.Second}
		rec.Plans = append(rec.Plans, plan)
		ref.Plans = append(ref.Plans, plan)
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
		gb, ga := paceBeforeAfter(rec, wf)
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
