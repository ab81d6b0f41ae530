package trace

import (
	"testing"

	"dyflow/internal/obs"
)

// benchCounters are the stage counters an xgc world bumps most, by name.
var benchCounters = []string{"monitor.forwarded", "monitor.repolled", "decision.metrics_ingested", "decision.suggestions"}

// BenchmarkRecorderInc is one stage-counter increment with a metrics
// registry attached, as every orchestrated world runs: the recorder's
// value and its dyflow_stage_events_total mirror.
func BenchmarkRecorderInc(b *testing.B) {
	r := New()
	r.SetMetrics(obs.NewRegistry())
	for _, name := range benchCounters {
		r.Inc(name, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Inc(benchCounters[i%len(benchCounters)], 1)
	}
}

// BenchmarkRecorderQueueDepth is one bus queue-depth sample with a metrics
// registry attached: the recorder's accumulator and its
// dyflow_bus_queue_depth gauge.
func BenchmarkRecorderQueueDepth(b *testing.B) {
	endpoints := []string{"monitor-server", "decision", "arbiter"}
	r := New()
	r.SetMetrics(obs.NewRegistry())
	for _, ep := range endpoints {
		r.QueueDepth(ep, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.QueueDepth(endpoints[i%len(endpoints)], i&7)
	}
}
