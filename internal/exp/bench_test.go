package exp

import (
	"testing"
	"time"

	"dyflow/internal/trace"
)

// BenchmarkJob runs each job scenario end to end, artifacts included,
// through one Slot's RunJob as a worker slot does, one sub-benchmark per
// entry of the scenario table, named by the scenario
// (BenchmarkJob/xgc): the worlds TestWorldBudget records and
// `make prof` profiles. quickstart is the world behind the svc-light
// benchmark workload, xgc (five DISKSCAN poll workers, dominated by sensor
// polling rather than task work) the one behind des-heavy and grayscott
// (driven by streamed TAU records) the one behind fleet-durable. Each runs
// b.N times, a seed each, and reports the kernel-level rates: steps/s is
// event dispatches per wall-clock second across the whole pipeline (tasks,
// sensors, decision, arbitration), handoffs/op is baton transfers per job,
// and -benchmem's B/op is the per-run allocation the service pays. The
// counts are read off the worlds RunJob has already closed, with what each
// world kept of itself: points/op is the metric points its recorder holds,
// spans/op the flight recorder's spans.
func BenchmarkJob(b *testing.B) {
	for _, scenario := range Scenarios() {
		s := NewSlot(new(Docs)) // compiles the scenario's document on its first job
		b.Run(scenario, func(b *testing.B) {
			var dispatched, handoffs uint64
			var simTime time.Duration
			var points, spans int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var w *World
				if _, err := s.RunJob(Job{Scenario: scenario, Seed: int64(i)}, func(x *World) error { w = x; return nil }); err != nil {
					b.Fatal(err)
				}
				dispatched += w.Sim.Dispatched()
				handoffs += w.Sim.Handoffs()
				simTime += time.Duration(w.Sim.Now())
				w.Rec.EachMetric(func(MetricPoint) { points++ })
				w.Trace.VisitSpans(func(*trace.Span) { spans++ })
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(dispatched)/sec, "steps/s")
				b.ReportMetric(simTime.Seconds()/sec, "simsec/s")
			}
			b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
			b.ReportMetric(float64(points)/float64(b.N), "points/op")
			b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
		})
	}
}
