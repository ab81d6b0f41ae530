package exp

import (
	"testing"
	"time"

	"dyflow/internal/apps"
)

// BenchmarkQuickstartJob runs the campaign service's cheap quickstart
// scenario end to end — the same world the service's load drills hammer —
// and reports the kernel-level rates: steps/s is event
// dispatches per wall-clock second across the whole pipeline (tasks,
// sensors, decision, arbitration), handoffs/op is baton transfers per job.
func BenchmarkQuickstartJob(b *testing.B) {
	var dispatched, handoffs uint64
	var simTime time.Duration
	for i := 0; i < b.N; i++ {
		var w *World
		if _, _, err := runQuickstart(int64(i), apps.Summit, Variant{Configure: func(x *World) error { w = x; return nil }}); err != nil {
			b.Fatal(err)
		}
		dispatched += w.Sim.Dispatched()
		handoffs += w.Sim.Handoffs()
		simTime += time.Duration(w.Sim.Now())
		w.Close()
	}
	reportWorldRates(b, dispatched, handoffs, simTime)
}

// BenchmarkXGCJob runs the xgc campaign job end to end, artifacts included
// — the world behind the des-heavy benchmark workload, whose five DISKSCAN
// poll workers make it the one scenario dominated by sensor polling rather
// than task work. Same units as BenchmarkQuickstartJob; -benchmem's B/op is
// the per-run allocation the service pays.
func BenchmarkXGCJob(b *testing.B) { benchmarkJob(b, ScenarioXGC) }

// BenchmarkGrayScottJob is the same for the grayscott job — the world
// behind the fleet-durable workload, driven by streamed TAU records rather
// than disk polls.
func BenchmarkGrayScottJob(b *testing.B) { benchmarkJob(b, ScenarioGrayScott) }

// benchmarkJob runs one scenario through RunJob b.N times, a seed each, and
// reads the kernel counts off the worlds RunJob has already closed.
func benchmarkJob(b *testing.B, scenario string) {
	var dispatched, handoffs uint64
	var simTime time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w *World
		if _, err := RunJob(Job{Scenario: scenario, Seed: int64(i)}, func(x *World) error { w = x; return nil }); err != nil {
			b.Fatal(err)
		}
		dispatched += w.Sim.Dispatched()
		handoffs += w.Sim.Handoffs()
		simTime += time.Duration(w.Sim.Now())
	}
	reportWorldRates(b, dispatched, handoffs, simTime)
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
