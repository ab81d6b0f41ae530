package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

func sec(n int) sim.Time { return sim.Time(n) * sim.Time(time.Second) }

// fill records a small but fully populated run: two completed spans, one
// dropped span, sensor lags, op latencies, counters, and queue samples.
func fill(r *Recorder) {
	r.Suggested("W/P1#1", "W", "P1", "ADDCPU", "PACE", sec(1), sec(2), sec(3))
	r.Received("W/P1#1", sec(4))
	r.Planned("W/P1#1", sec(5))
	r.Executed("W/P1#1", sec(9))

	r.Suggested("W/P2#2", "W", "P2", "RMCPU", "PACE", sec(2), sec(3), sec(4))
	r.Drop("W/P2#2", "warmup", sec(5))

	r.Suggested("W/P1#3", "W", "P1", "ADDCPU", "PACE", sec(10), sec(11), sec(12))
	r.Received("W/P1#3", sec(13))
	r.Planned("W/P1#3", sec(14))
	r.Executed("W/P1#3", sec(20))

	r.SensorLag("PACE", sec(1))
	r.SensorLag("PACE", sec(2))
	r.OpExecuted("stop", sec(5), sec(8))
	r.OpExecuted("start", sec(8), sec(9))
	r.Inc("arbiter.rounds", 2)
	r.Inc("decision.suggestions", 3)
	r.QueueDepth("arbiter", 1)
	r.QueueDepth("arbiter", 3)
}

func TestSpanLifecycle(t *testing.T) {
	r := New()
	fill(r)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	// Creation order preserved.
	if spans[0].ID != "W/P1#1" || spans[1].ID != "W/P2#2" || spans[2].ID != "W/P1#3" {
		t.Fatalf("span order = %v %v %v", spans[0].ID, spans[1].ID, spans[2].ID)
	}
	sp, ok := r.Span("W/P1#1")
	if !ok || !sp.Complete() || !sp.Monotone() {
		t.Fatalf("span = %+v, want complete and monotone", sp)
	}
	if sp.ExecutedAt != sec(9) {
		t.Fatalf("ExecutedAt = %v, want 9s", sp.ExecutedAt)
	}
	dropped, ok := r.Span("W/P2#2")
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
	r := New()
	r.Inc("a", 2)
	r.Inc("a", 3)
	if got := r.Counter("a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Inc("x", 1)
	r.Suggested("id", "w", "p", "a", "s", 0, 0, 0)
	r.Received("id", 0)
	r.Planned("id", 0)
	r.Executed("id", 0)
	r.Drop("id", "warmup", 0)
	r.SensorLag("s", 0)
	r.OpExecuted("stop", 0, 0)
	r.QueueDepth("ep", 0)
	if r.Counter("x") != 0 || r.Spans() != nil {
		t.Fatal("nil recorder retained state")
	}
	if _, ok := r.Span("id"); ok {
		t.Fatal("nil recorder returned a span")
	}
	rep := r.Report()
	if len(rep.Spans) != 0 || len(rep.Counters) != 0 {
		t.Fatalf("nil recorder report = %+v, want empty", rep)
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
	r := New()
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
	r := New()
	reg := obs.NewRegistry()
	r.SetMetrics(reg)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := sec(w*1000 + i).String()
				r.Suggested(id, "W", "P", "ADDCPU", "PACE", sec(1), sec(2), sec(3))
				r.Received(id, sec(4))
				r.Planned(id, sec(5))
				r.Executed(id, sec(6))
				r.Inc("decision.suggestions", 1)
				r.SensorLag("PACE", sec(i%5))
				r.OpExecuted("start", sec(0), sec(i%3))
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
				_ = r.SensorLagQuantile("PACE", 0.99)
				_ = r.QueueMaxDepth("arbiter")
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
}

// TestSetMetricsMirrors: with a registry attached, counters, lags, ops,
// and queue depths surface as registry families — and the recorder's own
// report reads the same shared histogram storage (no double counting).
func TestSetMetricsMirrors(t *testing.T) {
	r := New()
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	fill(r)

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
	r := New()
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
		r := New()
		fill(r)
		var buf bytes.Buffer
		r.Report().Write(&buf)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("equal recorders rendered different reports:\n%s\n---\n%s", a, b)
	}

	r := New()
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

// TestRecorderRestoreResolvesHandles: the registry handles a recorder keeps
// beside its counters and queue accumulators follow the registry attached
// now. A restore onto the pre-crash registry continues its series; one onto
// a fresh registry creates none until the recorder writes again, and then
// only the deltas since; a registry attached after the first samples gets
// the samples after it; a counter only ever bumped by zero has no series.
func TestRecorderRestoreResolvesHandles(t *testing.T) {
	prom := func(reg *obs.Registry) string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	reg := obs.NewRegistry()
	r := New()
	r.SetMetrics(reg)
	r.Inc("a", 2)
	r.Inc("z", 0)
	r.QueueDepth("ep", 3)
	st := r.State()

	same := New()
	same.SetMetrics(reg)
	same.Restore(st)
	same.Inc("a", 1)
	same.QueueDepth("ep", 5)
	if v, _ := reg.Value("dyflow_stage_events_total"); v != 3 {
		t.Errorf("restored onto the same registry: stage events = %v, want 3", v)
	}
	if v, _ := reg.Value("dyflow_bus_queue_depth"); v != 5 {
		t.Errorf("restored onto the same registry: queue depth = %v, want 5", v)
	}
	if got := same.Report().Counters; len(got) != 2 || got[0] != (CounterValue{"a", 3}) || got[1] != (CounterValue{"z", 0}) {
		t.Errorf("restored counters = %+v, want a=3 z=0", got)
	}
	if strings.Contains(prom(reg), `event="z"`) {
		t.Error("a counter only bumped by zero has a dyflow_stage_events_total series")
	}

	fresh := obs.NewRegistry()
	cold := New()
	cold.SetMetrics(fresh)
	cold.Restore(st)
	if text := prom(fresh); strings.Contains(text, "event=") || strings.Contains(text, "endpoint=") {
		t.Errorf("a restore alone wrote series to a fresh registry:\n%s", text)
	}
	cold.Inc("a", 4)
	if v, _ := fresh.Value("dyflow_stage_events_total"); v != 4 {
		t.Errorf("restored onto a fresh registry: stage events = %v, want the 4 since", v)
	}

	late := New()
	late.Inc("a", 1)
	late.QueueDepth("ep", 1)
	lateReg := obs.NewRegistry()
	late.SetMetrics(lateReg)
	late.Inc("a", 2)
	late.QueueDepth("ep", 7)
	if v, _ := lateReg.Value("dyflow_stage_events_total"); v != 2 {
		t.Errorf("registry attached late: stage events = %v, want 2", v)
	}
	if v, _ := lateReg.Value("dyflow_bus_queue_depth"); v != 7 {
		t.Errorf("registry attached late: queue depth = %v, want 7", v)
	}
}
