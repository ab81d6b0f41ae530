package exp

import (
	"testing"
	"time"

	"dyflow/internal/trace"
)

// BenchmarkQuickstartJob runs the campaign service's cheap quickstart
// job end to end, artifacts included — the world behind the svc-light
// benchmark workload, which the service's load drills hammer too. It
// reports the kernel-level rates: steps/s is event dispatches per
// wall-clock second across the whole pipeline (tasks, sensors, decision,
// arbitration), handoffs/op is baton transfers per job, and -benchmem's
// B/op is the per-run allocation the service pays.
func BenchmarkQuickstartJob(b *testing.B) { benchmarkJob(b, ScenarioQuickstart) }

// BenchmarkXGCJob runs the xgc campaign job end to end, artifacts included
// — the world behind the des-heavy benchmark workload, whose five DISKSCAN
// poll workers make it the one scenario dominated by sensor polling rather
// than task work. Same units as BenchmarkQuickstartJob.
func BenchmarkXGCJob(b *testing.B) { benchmarkJob(b, ScenarioXGC) }

// BenchmarkGrayScottJob is the same for the grayscott job — the world
// behind the fleet-durable workload, driven by streamed TAU records rather
// than disk polls.
func BenchmarkGrayScottJob(b *testing.B) { benchmarkJob(b, ScenarioGrayScott) }

// benchmarkJob runs one scenario through RunJob b.N times, a seed each, and
// reads the kernel counts off the worlds RunJob has already closed, with
// what each world kept of itself: points/op is the metric points its
// recorder holds, spans/op the flight recorder's spans.
func benchmarkJob(b *testing.B, scenario string) {
	var dispatched, handoffs uint64
	var simTime time.Duration
	var points, spans int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w *World
		if _, err := RunJob(Job{Scenario: scenario, Seed: int64(i)}, func(x *World) error { w = x; return nil }); err != nil {
			b.Fatal(err)
		}
		dispatched += w.Sim.Dispatched()
		handoffs += w.Sim.Handoffs()
		simTime += time.Duration(w.Sim.Now())
		w.Rec.EachMetric(func(MetricPoint) { points++ })
		w.Orch.Trace.VisitSpans(func(*trace.Span) { spans++ })
	}
	reportWorldRates(b, dispatched, handoffs, simTime)
	b.ReportMetric(float64(points)/float64(b.N), "points/op")
	b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
}

// reportWorldRates reports a whole-world benchmark's kernel-level rates
// from the totals over its b.N runs.
func reportWorldRates(b *testing.B, dispatched, handoffs uint64, simTime time.Duration) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(dispatched)/sec, "steps/s")
		b.ReportMetric(simTime.Seconds()/sec, "simsec/s")
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}
