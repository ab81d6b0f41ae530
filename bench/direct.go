package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
)

// direct is one exp.RunJob call made by the bench itself, with no service
// around it: the reference the service's answers are checked against, and
// the exp + sim + core layer measured on its own.
type direct struct {
	out      *exp.JobOutcome
	total    time.Duration
	build    time.Duration // call → configure hook: world construction
	events   uint64        // sim events dispatched
	handoffs uint64        // goroutine handoffs
	sends    uint64        // orchestration-bus messages sent
	allocB   uint64        // TotalAlloc delta; exact only when nothing else runs
}

func runDirect(j exp.Job) (direct, error) {
	var d direct
	var world *exp.World
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	out, err := exp.RunJob(j, func(w *exp.World) error {
		d.build = time.Since(t0)
		world = w
		return nil
	})
	d.total = time.Since(t0)
	if err != nil {
		return d, err
	}
	runtime.ReadMemStats(&ms)
	d.out, d.allocB = out, ms.TotalAlloc-alloc0
	d.events, d.handoffs = world.Sim.Dispatched(), world.Sim.Handoffs()
	if world.Orch != nil {
		for _, ep := range world.Orch.Bus.Snapshot().Endpoints {
			d.sends += ep.Seq
		}
	}
	return d, nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digests maps each artifact name to the sha256 of its bytes.
func digests(artifacts map[string][]byte) map[string]string {
	out := make(map[string]string, len(artifacts))
	for name, data := range artifacts {
		out[name] = sha256Hex(data)
	}
	return out
}

// stageEvents reads one dyflow_stage_events_total{event} counter out of a
// run's metrics artifact.
func stageEvents(metricsArtifact []byte, event string) float64 {
	var snap obs.Snapshot
	if json.Unmarshal(metricsArtifact, &snap) != nil {
		return 0
	}
	for _, m := range snap.Metrics {
		if m.Name != "dyflow_stage_events_total" {
			continue
		}
		for _, s := range m.Series {
			if s.Labels["event"] == event {
				return s.Value
			}
		}
	}
	return 0
}
