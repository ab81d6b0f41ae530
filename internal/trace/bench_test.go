package trace

import (
	"testing"

	"dyflow/internal/obs"
)

// benchCounters are the stage counters an xgc world bumps most, by name.
var benchCounters = []string{"monitor.forwarded", "monitor.repolled", "decision.metrics_ingested", "decision.suggestions"}

// BenchmarkStageCounterAdd is one stage-counter add through a handle the
// stage resolved at construction, with a metrics registry attached, as
// every orchestrated world runs: the recorder's value and its
// dyflow_stage_events_total mirror.
func BenchmarkStageCounterAdd(b *testing.B) {
	r := New(obs.NewRegistry())
	cs := make([]*StageCounter, len(benchCounters))
	for i, name := range benchCounters {
		cs[i] = r.StageCounter(name)
		cs[i].Add(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs[i%len(cs)].Add(1)
	}
}

// BenchmarkRecorderQueueDepth is one bus queue-depth sample with a metrics
// registry attached: the recorder's accumulator and its
// dyflow_bus_queue_depth gauge.
func BenchmarkRecorderQueueDepth(b *testing.B) {
	endpoints := []string{"monitor-server", "decision", "arbiter"}
	r := New(obs.NewRegistry())
	for _, ep := range endpoints {
		r.QueueDepth(ep, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.QueueDepth(endpoints[i%len(endpoints)], i&7)
	}
}
