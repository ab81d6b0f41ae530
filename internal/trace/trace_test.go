package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// span returns a copy of suggestion seq's span, read under the recorder's
// lock.
func (r *Recorder) span(seq int) (Span, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.spans.find(seq); rec != nil {
		return r.spans.expand(rec), true
	}
	return Span{}, false
}

func sec(n int) sim.Time { return sim.Time(n) * sim.Time(time.Second) }

// fill records a small but fully populated run: two completed spans, one
// dropped span, sensor lags, op latencies, counters, and queue samples.
func fill(r *Recorder) {
	r.Suggested(1, "W", "P1", "ADDCPU", "PACE", sec(1), sec(2), sec(3))
	r.Received(1, sec(4))
	r.Planned(1, sec(5))
	r.Executed(1, sec(9))

	r.Suggested(2, "W", "P2", "RMCPU", "PACE", sec(2), sec(3), sec(4))
	r.Drop(2, "warmup", sec(5))

	r.Suggested(3, "W", "P1", "ADDCPU", "PACE", sec(10), sec(11), sec(12))
	r.Received(3, sec(13))
	r.Planned(3, sec(14))
	r.Executed(3, sec(20))

	r.SensorLag("PACE", sec(1))
	r.SensorLag("PACE", sec(2))
	r.OpExecuted(Op{Kind: "stop", Workflow: "W", Task: "T", Attempts: 1, StartedAt: sec(5), EndedAt: sec(8)})
	r.OpExecuted(Op{Kind: "start", Workflow: "W", Task: "T", Attempts: 2, StartedAt: sec(8), EndedAt: sec(9)})
	r.StageCounter("arbiter.rounds").Add(2)
	r.StageCounter("decision.suggestions").Add(3)
	r.QueueDepth("arbiter", 1)
	r.QueueDepth("arbiter", 3)
}

func TestSpanLifecycle(t *testing.T) {
	r := New(obs.NewRegistry())
	fill(r)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	// Creation order preserved.
	if spans[0].ID() != "W/P1#1" || spans[1].ID() != "W/P2#2" || spans[2].ID() != "W/P1#3" {
		t.Fatalf("span order = %v %v %v", spans[0].ID(), spans[1].ID(), spans[2].ID())
	}
	sp, ok := r.span(1)
	if !ok || !sp.Complete() || !sp.Monotone() {
		t.Fatalf("span = %+v, want complete and monotone", sp)
	}
	if sp.ExecutedAt != sec(9) {
		t.Fatalf("ExecutedAt = %v, want 9s", sp.ExecutedAt)
	}
	dropped, ok := r.span(2)
	if !ok || dropped.Dropped != "warmup" || dropped.Complete() {
		t.Fatalf("dropped span = %+v", dropped)
	}
	// Drop stamps ReceivedAt when unset, keeping the span monotone.
	if dropped.ReceivedAt != sec(5) || !dropped.Monotone() {
		t.Fatalf("dropped span = %+v, want ReceivedAt 5s and monotone", dropped)
	}
}

func TestMonotoneDetectsRegression(t *testing.T) {
	sp := Span{GeneratedAt: sec(5), ObservedAt: sec(3)}
	if sp.Monotone() {
		t.Fatal("out-of-order span reported monotone")
	}
	// Zero (unstamped) stages are skipped, not treated as regressions.
	sp = Span{GeneratedAt: sec(1), DecidedAt: sec(2), ExecutedAt: sec(3)}
	if !sp.Monotone() {
		t.Fatal("partially stamped span reported non-monotone")
	}
}

func TestCounters(t *testing.T) {
	r := New(obs.NewRegistry())
	a := r.StageCounter("a")
	a.Add(2)
	r.StageCounter("a").Add(3) // a second handle of the name shares its value
	a.Add(0)
	if got := r.Counter("a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	// A handle that never counted has no entry: the entry appears at the
	// first Add, as the report shows.
	r.StageCounter("unused")
	if cs := r.Report().Counters; len(cs) != 1 || cs[0] != (CounterValue{Name: "a", Value: 5}) {
		t.Fatalf("report counters = %+v, want only a = 5", cs)
	}
}

// TestPercentileNearestRank: the latency table's P50/P99 are nearest-rank
// (stats.NearestRank, whose own table is in stats_test.go), computed over
// the samples in any order.
func TestPercentileNearestRank(t *testing.T) {
	st := summarize("x", []sim.Time{sec(4), sec(1), sec(3), sec(2)})
	if st.P50 != sec(2) {
		t.Fatalf("p50 = %v, want 2s", st.P50)
	}
	if st.P99 != sec(4) {
		t.Fatalf("p99 = %v, want 4s", st.P99)
	}
	if st := summarize("x", nil); st.P50 != 0 || st.P99 != 0 {
		t.Fatalf("percentiles of no samples = %v/%v, want 0", st.P50, st.P99)
	}
}

// TestPercentileSmallSamples pins what a reader of the §4.6 table relies
// on for tiny samples: P99 of any n <= 100 sample is its maximum, and P50
// is the ceil(n/2)-th value — no sliding toward lower ranks.
func TestPercentileSmallSamples(t *testing.T) {
	cases := []struct {
		samples  []sim.Time
		p50, p99 sim.Time
	}{
		{[]sim.Time{sec(7)}, sec(7), sec(7)},
		{[]sim.Time{sec(1), sec(9)}, sec(1), sec(9)},
		{[]sim.Time{sec(1), sec(2), sec(9)}, sec(2), sec(9)},
		{[]sim.Time{sec(1), sec(2), sec(3), sec(9)}, sec(2), sec(9)},
	}
	for _, c := range cases {
		if st := summarize("x", c.samples); st.P50 != c.p50 || st.P99 != c.p99 {
			t.Errorf("n=%d: p50/p99 = %v/%v, want %v/%v", len(c.samples), st.P50, st.P99, c.p50, c.p99)
		}
	}
}

// TestFmtLatAdaptive: sub-millisecond latencies render with microsecond
// precision instead of collapsing to "0s"; larger ones keep millisecond
// rounding.
func TestFmtLatAdaptive(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0s"},
		{450 * time.Microsecond, "450µs"},
		{999 * time.Microsecond, "999µs"},
		{1500 * time.Nanosecond, "2µs"},
		{time.Millisecond, "1ms"},
		{1500 * time.Millisecond, "1.5s"},
		{3 * time.Second, "3s"},
	}
	for _, c := range cases {
		if got := fmtLat(c.d); got != c.want {
			t.Errorf("fmtLat(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestQueueDepthGuards: negative depths clamp to zero (mean stays a
// depth) and the running sum saturates at MaxInt64 instead of wrapping
// negative.
func TestQueueDepthGuards(t *testing.T) {
	r := New(obs.NewRegistry())
	r.QueueDepth("ep", -5)
	r.QueueDepth("ep", 3)
	rep := r.Report()
	if len(rep.Queues) != 1 {
		t.Fatalf("queues = %+v, want 1 endpoint", rep.Queues)
	}
	q := rep.Queues[0]
	if q.Samples != 2 || q.MeanDepth != 1.5 || q.MaxDepth != 3 {
		t.Fatalf("queue stat = %+v, want samples=2 mean=1.5 max=3", q)
	}

	// Saturation: force the accumulator near the top, then add more.
	r.queues["ep"].sum = math.MaxInt64 - 1
	r.QueueDepth("ep", 10)
	if got := r.queues["ep"].sum; got != math.MaxInt64 {
		t.Fatalf("sum = %d, want saturated MaxInt64", got)
	}
	r.QueueDepth("ep", 10)
	if got := r.queues["ep"].sum; got != math.MaxInt64 {
		t.Fatalf("sum wrapped after saturation: %d", got)
	}
}

// TestRecorderConcurrentAccess hammers every mutating method from writer
// goroutines while readers render reports — the `dyflow-exp serve`
// pattern. Run under -race (make verify does) to make this meaningful.
func TestRecorderConcurrentAccess(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(reg)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			suggestions := r.StageCounter("decision.suggestions")
			for i := 0; i < 200; i++ {
				seq := w*1000 + i + 1
				r.Suggested(seq, "W", "P", "ADDCPU", "PACE", sec(1), sec(2), sec(3))
				r.Received(seq, sec(4))
				r.Planned(seq, sec(5))
				r.Executed(seq, sec(6))
				suggestions.Add(1)
				r.SensorLag("PACE", sec(i%5))
				r.OpExecuted(Op{Kind: "start", EndedAt: sec(i % 3)})
				r.QueueDepth("arbiter", i%7)
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				r.Report().Write(&buf)
				_ = r.Spans()
				_ = r.Counter("decision.suggestions")
				_ = r.SensorLagMean("PACE")
				_ = r.OpShare("start")
				_ = reg.WritePrometheus(&buf)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("decision.suggestions"); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	if len(r.Spans()) != 800 {
		t.Fatalf("spans = %d, want 800", len(r.Spans()))
	}
	for _, sp := range r.Spans() {
		if !sp.Complete() {
			t.Fatalf("span %d was not stamped: %+v", sp.Seq, sp)
		}
	}
}

// TestRecorderMirrorsIntoRegistry: counters, lags, ops, and queue depths
// surface as families of the recorder's registry — and the recorder's own
// report reads the same shared histogram storage (no double counting). A
// counter only ever bumped by zero has no series.
func TestRecorderMirrorsIntoRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(reg)
	fill(r)
	r.StageCounter("z").Add(0)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(prom.Bytes(), []byte(`event="z"`)) {
		t.Error("a counter only bumped by zero has a dyflow_stage_events_total series")
	}

	if v, ok := reg.Value("dyflow_stage_events_total"); !ok || v != 5 {
		t.Fatalf("stage events = %v (ok=%v), want 5", v, ok)
	}
	if v, ok := reg.Value("dyflow_sensor_lag_seconds"); !ok || v != 2 {
		t.Fatalf("sensor lag count = %v (ok=%v), want 2 observations", v, ok)
	}
	if v, ok := reg.Value("dyflow_actuation_op_seconds"); !ok || v != 2 {
		t.Fatalf("op latency count = %v (ok=%v), want 2 observations", v, ok)
	}
	if v, ok := reg.Value("dyflow_bus_queue_depth"); !ok || v != 3 {
		t.Fatalf("queue depth gauge = %v (ok=%v), want last depth 3", v, ok)
	}

	rep := r.Report()
	if len(rep.SensorLags) != 1 || rep.SensorLags[0].Count != 2 {
		t.Fatalf("report sensor lags = %+v", rep.SensorLags)
	}
	// Lags 1s and 2s land exactly on the 1 and 2.5-second bucket bounds.
	if rep.SensorLags[0].P50 != time.Second || rep.SensorLags[0].Max != 2*time.Second {
		t.Fatalf("lag stat = %+v, want p50=1s max=2s", rep.SensorLags[0])
	}
}

func TestReportAggregation(t *testing.T) {
	r := New(obs.NewRegistry())
	fill(r)
	rep := r.Report()

	// Only P1's two completed spans contribute stage rows; the dropped P2
	// span must not.
	for _, st := range rep.Stages {
		if st.Policy == "P2" {
			t.Fatalf("dropped policy P2 appeared in stage rows: %+v", st)
		}
		if st.Policy == "P1" && st.Count != 2 {
			t.Fatalf("stage %q count = %d, want 2", st.Stage, st.Count)
		}
	}
	if len(rep.Stages) != len(stageNames) {
		t.Fatalf("stage rows = %d, want %d", len(rep.Stages), len(stageNames))
	}
	// Span 1 total 8s, span 3 total 10s -> mean 9s.
	for _, st := range rep.Stages {
		if st.Stage == "total" && st.Mean != time.Duration(sec(9)) {
			t.Fatalf("total mean = %v, want 9s", st.Mean)
		}
	}
	if len(rep.SensorLags) != 1 || rep.SensorLags[0].Label != "PACE" || rep.SensorLags[0].Count != 2 {
		t.Fatalf("sensor lags = %+v", rep.SensorLags)
	}
	if len(rep.Ops) != 2 || rep.Ops[0].Label != "start" || rep.Ops[1].Label != "stop" {
		t.Fatalf("ops = %+v, want sorted [start stop]", rep.Ops)
	}
	if len(rep.Queues) != 1 || rep.Queues[0].MeanDepth != 2.0 || rep.Queues[0].MaxDepth != 3 {
		t.Fatalf("queues = %+v", rep.Queues)
	}
}

func TestReportDeterministicAndJSON(t *testing.T) {
	render := func() []byte {
		r := New(obs.NewRegistry())
		fill(r)
		var buf bytes.Buffer
		r.Report().Write(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("equal recorders rendered different reports:\n%s\n---\n%s", a, b)
	}

	r := New(obs.NewRegistry())
	fill(r)
	data, err := json.Marshal(r.Report())
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 3 || len(back.Counters) != 2 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// TestOpLog: the recorder keeps every executed op in execution order,
// and OpShare splits the ops' time by kind.
func TestOpLog(t *testing.T) {
	r := New(obs.NewRegistry())
	if share := r.OpShare("stop"); share != 0 {
		t.Fatalf("share with no ops = %v, want 0", share)
	}
	fill(r)
	r.OpExecuted(Op{Kind: "start", Workflow: "W", Task: "U", Attempts: 3, Err: "no cores", StartedAt: sec(9), EndedAt: sec(9)})
	var got []Op
	r.VisitOps(func(op *Op) { got = append(got, *op) })
	want := []Op{
		{Kind: "stop", Workflow: "W", Task: "T", Attempts: 1, StartedAt: sec(5), EndedAt: sec(8)},
		{Kind: "start", Workflow: "W", Task: "T", Attempts: 2, StartedAt: sec(8), EndedAt: sec(9)},
		{Kind: "start", Workflow: "W", Task: "U", Attempts: 3, Err: "no cores", StartedAt: sec(9), EndedAt: sec(9)},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ops = %+v, want %+v", got, want)
	}
	if stop, start := r.OpShare("stop"), r.OpShare("start"); stop != 0.75 || start != 0.25 {
		t.Fatalf("shares stop %v, start %v, want 0.75 and 0.25", stop, start)
	}
}
