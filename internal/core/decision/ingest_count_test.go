package decision

import (
	"bytes"
	"encoding/json"
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
// flight recorder and in dyflow_stage_events_total alike — and a metric
// that does not parse is skipped, uncounted, while the rest of its envelope
// is ingested.
func TestMetricsIngestedCountsMetrics(t *testing.T) {
	cfg, err := spec.CompileString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	e := New(s, bus, "decision", "arbiter", cfg)
	tr := trace.New()
	reg := obs.NewRegistry()
	tr.SetMetrics(reg)
	e.SetTracer(tr)

	good := metric("GS", "Iso", "PACE", spec.GranTask, 30, 0).ToMsg()
	// A message whose granularity does not parse names no series, so it
	// cannot be sent typed: it comes in envelopes restored from a
	// checkpoint, which carry their JSON.
	goodJSON, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	badJSON := bytes.Replace(goodJSON, []byte(`"granularity":"task"`), []byte(`"granularity":"bogus"`), 1)
	restored := func(seq uint64, msgs ...[]byte) msg.Envelope {
		data := append([]byte("["), bytes.Join(msgs, []byte(","))...)
		return msg.Envelope{From: "monitor-server", To: "decision", Seq: seq, Data: append(data, ']')}
	}
	bus.Restore(msg.BusSnapshot{Endpoints: []msg.EndpointSnapshot{
		{Name: "monitor-server", Seq: 2},
		{Name: "decision", Queue: []msg.Envelope{
			restored(1, goodJSON, badJSON, goodJSON),
			restored(2, badJSON),
		}},
	}})
	e.Start()

	mon := bus.Endpoint("monitor-server")
	s.Spawn("monitor-server", func(p *sim.Proc) {
		mon.Send("decision", []sensor.MetricMsg{good, good, good})
		mon.Send("decision", []sensor.MetricMsg{})
		p.Sleep(time.Second)
		mon.Send("decision", []sensor.MetricMsg{good})
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
