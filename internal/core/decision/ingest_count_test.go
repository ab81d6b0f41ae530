package decision

import (
	"testing"
	"time"

	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// TestMetricsIngestedCountsMetrics: decision.metrics_ingested counts the
// metrics Decision ingested, not the envelopes that carried them — in the
// flight recorder and in dyflow_stage_events_total alike — restored and
// live envelopes alike, and an empty envelope counts nothing.
func TestMetricsIngestedCountsMetrics(t *testing.T) {
	cfg, err := spec.CompileString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	reg := obs.NewRegistry()
	tr := trace.New(reg)
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, tr)

	good := metric("GS", "Iso", "PACE", spec.GranTask, 30, 0).ToMsg()
	// An envelope restored from a checkpoint is ingested as a live one.
	bus.Decode = func(string, []byte) (any, error) {
		return &sensor.MetricList{Msgs: []sensor.MetricMsg{good, good}}, nil
	}
	err = bus.Restore(msg.BusSnapshot{Endpoints: []msg.EndpointSnapshot{
		{Name: "monitor-server", Seq: 1},
		{Name: "decision", Queue: []msg.QueuedEnvelope{{}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	mon := bus.Endpoint("monitor-server")
	s.Spawn("monitor-server", func(p *sim.Proc) {
		mon.Send("decision", &sensor.MetricList{Msgs: []sensor.MetricMsg{good, good, good}})
		mon.Send("decision", &sensor.MetricList{})
		p.Sleep(time.Second)
		mon.Send("decision", &sensor.MetricList{Msgs: []sensor.MetricMsg{good}})
	})
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	const want = 6
	if got := tr.Counter("decision.metrics_ingested"); got != want {
		t.Errorf("decision.metrics_ingested = %d, want %d", got, want)
	}
	var events float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "dyflow_stage_events_total" {
			continue
		}
		for _, sr := range m.Series {
			if sr.Labels["event"] == "decision.metrics_ingested" {
				events = sr.Value
			}
		}
	}
	if events != want {
		t.Errorf(`dyflow_stage_events_total{event="decision.metrics_ingested"} = %v, want %d`, events, want)
	}
}
