package exp

import (
	"math/rand"
	"reflect"
	"runtime"
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
// the chunked store of descriptors does must be indistinguishable from this.

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
// every field of a key varies so that none can be dropped from what a
// point records unnoticed.
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

// everySeries is the declaration of a reader that reads every series.
func everySeries(sensor.Key) bool { return true }

// checkRecorder forwards the same generated batches — points in all — to a
// Recorder that declared every series and to the reference and compares
// every way of reading them. A second Recorder declares only the first
// workflow's PACE series, as the Gray-Scott runners do, and must read that
// series and paceBeforeAfter as the reference does.
func checkRecorder(t *testing.T, rng *rand.Rand, points int) {
	t.Helper()
	rec, ref := NewRecorder(sim.New(0)), &refRecorder{}
	rec.Keep(everySeries)
	paceWF := genWorkflows[0]
	pace := NewRecorder(sim.New(0))
	pace.Keep(paceSeries(paceWF))
	now := sim.Time(0)
	for n := 0; n < points; {
		now += time.Duration(rng.Intn(3)) * time.Second // same-instant batches happen
		batch := make([]sensor.Metric, rng.Intn(9))     // and so do empty ones
		if len(batch) > points-n {
			batch = batch[:points-n]
		}
		for i := range batch {
			k := genKey(rng)
			batch[i] = sensor.Metric{Key: k, Series: &sensor.Series{Key: k}, Value: rng.Float64() * 50, Step: rng.Intn(500), ObservedAt: now}
		}
		n += len(batch)
		rec.forwarded(batch)
		pace.forwarded(batch)
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
	gb, ga := paceBeforeAfter(pace, ref.Plans, paceWF)
	if wb, wa := ref.paceBeforeAfter(paceWF); gb != wb || ga != wa {
		t.Fatalf("%d points: PACE-only paceBeforeAfter(%s) = %v, %v; reference %v, %v", points, paceWF, gb, ga, wb, wa)
	}
	for _, task := range genTasks {
		if got, want := pace.Series(paceWF, task, "PACE"), ref.series(paceWF, task, "PACE"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d points: PACE-only Series(%s, %q, PACE) differs from the reference", points, paceWF, task)
		}
	}
	pace.EachMetric(func(m MetricPoint) {
		if !paceSeries(paceWF)(m.Key) {
			t.Fatalf("%d points: a PACE-only recorder kept %v", points, m.Key)
		}
	})
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
	// Around every way a chunk can end — each head chunk's, then the first
	// two full chunks' — then sizes at large.
	sizes := []int{0, 1}
	end := 0
	for n := 0; n < headChunks+2; n++ {
		end += chunkCap(n)
		sizes = append(sizes, end-1, end, end+1)
	}
	for _, points := range sizes {
		checkRecorder(t, rng, points)
	}
	for i := 0; i < 150; i++ {
		checkRecorder(t, rng, rng.Intn(4*pointChunk))
	}
}

// TestRecorderPointSize pins the layout the series' memory cost rests on:
// the point's size and the chunk lengths a series grows through.
func TestRecorderPointSize(t *testing.T) {
	if size := reflect.TypeOf(point{}).Size(); size != 32 {
		t.Fatalf("a recorded point is %d bytes, want 32", size)
	}
	for n, want := range []int{31, 63, 127, 255, 511, 511, 511} {
		if got := chunkCap(n); got != want {
			t.Fatalf("chunk %d holds %d points, want %d", n, got, want)
		}
	}
}

// TestRecorderChunkAllocation: each chunk of points is one allocation
// that fills its size class. A head chunk of 31, 63, 127 or 255 points
// lands in the 1, 2, 4 or 8 KB class, and a full chunk in the 16 KB class,
// not the 18 KB class a header-carrying 512-point chunk lands in. Each head
// chunk is measured alone (its bytes include the chunk list's growth, under
// 128 bytes, less than the step to the next class); the full chunks as
// bytes allocated by a run of them, after the heads.
func TestRecorderChunkAllocation(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("allocation accounting")
	}
	s := &sensor.Series{}
	batch := make([]sensor.Metric, pointChunk)
	for i := range batch {
		batch[i] = sensor.Metric{Series: s}
	}
	var before, after runtime.MemStats
	rec := NewRecorder(sim.New(0))
	rec.Keep(everySeries)
	for n, class := range []uint64{1024, 2048, 4096, 8192} {
		size := chunkCap(n)
		// The chunk's points fill the class: one point more would not fit.
		if fill := uint64(size)*32 + 8; fill > class || fill+32 <= class {
			t.Fatalf("head chunk %d: %d points take %d bytes with the header, want the last point of the %d-byte class", n, size, fill, class)
		}
		runtime.ReadMemStats(&before)
		rec.forwarded(batch[:size])
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < class || got >= class+128 {
			t.Fatalf("head chunk %d of %d points allocates %d bytes, want the %d-byte size class", n, size, got, class)
		}
	}
	const chunks = 64
	runtime.ReadMemStats(&before)
	for i := 0; i < chunks; i++ {
		rec.forwarded(batch)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / chunks; per > 16384+256 {
		t.Fatalf("a chunk of %d points allocates %d bytes, want the 16 KB size class", pointChunk, per)
	}
}
