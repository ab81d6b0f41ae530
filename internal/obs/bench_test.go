package obs

import (
	"io"
	"testing"
)

// The registry sits on every hot path the orchestrator has — bus sends,
// sensor ships, stage counters — so the handle operations must stay
// allocation-free and the label resolution cheap (`make bench`).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "", "k").With("v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "", "k").With("v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil, "k").With("v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 100)
	}
}

func BenchmarkVecWith(b *testing.B) {
	vec := NewRegistry().Counter("bench_labeled_total", "", "sensor")
	labels := []string{"PACE", "STATUS", "NSTEPS", "SELF"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.With(labels[i%len(labels)]).Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	reg := NewRegistry()
	for _, sensor := range []string{"PACE", "STATUS", "NSTEPS", "SELF"} {
		h := reg.Histogram("bench_lag_seconds", "", nil, "sensor").With(sensor)
		for i := 0; i < 100; i++ {
			h.Observe(float64(i) / 10)
		}
		reg.Counter("bench_events_total", "", "sensor").With(sensor).Add(100)
		reg.Gauge("bench_depth", "", "sensor").With(sensor).Set(float64(len(sensor)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
