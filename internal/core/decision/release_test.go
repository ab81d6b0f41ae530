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

// TestDecisionReleasesEveryList: Decision releases each list the Monitor
// server sends it, so the server recycles them. Every forward changes:
// over 60 forwards the server sends no more distinct lists than the one
// in flight plus the one its series caches.
func TestDecisionReleasesEveryList(t *testing.T) {
	cfg, err := spec.CompileString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	tr := trace.New(obs.NewRegistry())
	// A snapshot taken at each delivery onto Decision lists what is
	// queued there; the envelope just delivered is last.
	lists := map[*sensor.MetricList]bool{}
	var last any
	bus.Encode = func(to string, p any) ([]byte, error) {
		if to == "decision" {
			last = p
		}
		return nil, nil
	}
	bus.OnDepth = func(to string, _ int) {
		if to == "decision" {
			bus.Snapshot()
			lists[last.(*sensor.MetricList)] = true
		}
	}
	sv := sensor.NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, tr)
	sv.Start()
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, tr)
	e.Start()

	const forwards = 60
	client := bus.Endpoint("client0")
	pace := &sensor.Series{Key: sensor.Key{Workflow: "GS", Task: "Iso", Sensor: "PACE", Granularity: spec.GranTask}}
	s.Spawn("client0", func(p *sim.Proc) {
		for i := 1; i <= forwards; i++ {
			client.Send("monitor-server", &sensor.Batch{Updates: []sensor.Update{
				{Series: pace, Value: float64(i), Step: i, GeneratedAt: p.Now()},
			}})
			if err := p.Sleep(100 * time.Millisecond); err != nil {
				return
			}
		}
	})
	if err := s.Run(forwards * 100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ingested := tr.Counter("decision.metrics_ingested")
	if ingested != forwards {
		t.Fatalf("Decision ingested %d of %d metrics", ingested, forwards)
	}
	if n := len(lists); n > 2 {
		t.Errorf("the server sent %d distinct lists over %d forwards; Decision must release every list", n, forwards)
	}
	t.Logf("%d metrics ingested, %d distinct lists", ingested, len(lists))
}
