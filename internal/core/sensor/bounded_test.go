package sensor_test

import (
	"testing"

	"dyflow/internal/core"
	"dyflow/internal/exp"
	"dyflow/internal/sim"
)

// linkCensus counts one Monitor link's payloads over a run: every payload
// it has seen — queued on the link's receiver, on its sender's free list,
// in a re-send cache — and the peak, over the run's instants, of the
// payloads queued on the link during one instant plus the most the caches
// held then.
type linkCensus struct {
	seen map[any]bool
	// The current instant: the payloads queued on the link at some
	// delivery in it, and the most the caches held at one.
	at       sim.Time
	inflight map[any]bool
	cached   int
	peak     int
}

func newLinkCensus() *linkCensus {
	return &linkCensus{seen: map[any]bool{}, inflight: map[any]bool{}}
}

// sample records one delivery instant's view: the payloads queued on the
// link and the sender's census.
func (lc *linkCensus) sample(now sim.Time, queued []any, census func(func(p any, cached bool))) {
	if now != lc.at {
		lc.close()
		lc.at = now
	}
	for _, p := range queued {
		lc.seen[p], lc.inflight[p] = true, true
	}
	cached := 0
	census(func(p any, c bool) {
		lc.seen[p] = true
		if c {
			cached++
		}
	})
	lc.cached = max(lc.cached, cached)
}

// close ends the current instant.
func (lc *linkCensus) close() {
	lc.peak = max(lc.peak, len(lc.inflight)+lc.cached)
	clear(lc.inflight)
	lc.cached = 0
}

// TestMonitorLinkPayloadsAreBounded: in each job scenario, each Monitor
// link allocates no more payloads than it ever has in flight plus in its
// re-send caches at once. Every delivery world delivers within an instant
// and each receiver drains what it was delivered in that instant, so the
// payloads in flight at any moment of an instant are among those queued
// on the link at one of its deliveries. A payload whose release is missed
// stays out of its free list for good, and its sender allocates another.
func TestMonitorLinkPayloadsAreBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every job scenario")
	}
	for _, scenario := range exp.Scenarios() {
		t.Run(scenario, func(t *testing.T) {
			batches, lists := newLinkCensus(), newLinkCensus()
			var o *core.Orchestrator
			_, err := exp.RunJob(exp.Job{Scenario: scenario, Machine: "summit", Seed: 1}, func(w *exp.World) error {
				o = w.Orch
				bus := o.Bus
				// The bus encodes every queued payload for a snapshot: a
				// snapshot taken at each delivery lists what is queued.
				encode, onDepth := bus.Encode, bus.OnDepth
				var queued map[string][]any
				bus.Encode = func(to string, p any) ([]byte, error) {
					if queued != nil {
						queued[to] = append(queued[to], p)
						return nil, nil
					}
					return encode(to, p)
				}
				bus.OnDepth = func(to string, depth int) {
					onDepth(to, depth)
					queued = map[string][]any{}
					bus.Snapshot()
					now := w.Sim.Now()
					batches.sample(now, queued[core.EndpointMonitorServer], o.Client.PayloadCensus)
					lists.sample(now, queued[core.EndpointDecision], o.Server.PayloadCensus)
					queued = nil
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				link   string
				census *linkCensus
			}{{"client→server", batches}, {"server→decision", lists}} {
				c.census.close()
				if n, peak := len(c.census.seen), c.census.peak; n == 0 || n > peak {
					t.Errorf("%s: %d payloads allocated, peak in flight plus cached %d", c.link, n, peak)
				} else {
					t.Logf("%s: %d payloads allocated, peak in flight plus cached %d", c.link, n, peak)
				}
			}
		})
	}
}
