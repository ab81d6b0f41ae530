package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// httpGet fetches a coordinator endpoint's body.
func httpGet(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%v)", path, resp.Status, err)
	}
	return data
}

// TestFleetMetricsAggregation runs a campaign over two fleet workers and
// checks the aggregation plane: each worker's pushed snapshot lands in
// GET /v1/fleet/metrics, /metrics folds them in under worker labels, and
// GET /v1/fleet carries per-worker liveness and outcome detail.
func TestFleetMetricsAggregation(t *testing.T) {
	s, addr := startFleetCoordinator(t, 2*time.Second)

	var workers []*fleet.Worker
	for i := 0; i < 2; i++ {
		w, err := fleet.JoinFleet(fleet.WorkerOptions{
			Coordinator: addr,
			Name:        fmt.Sprintf("obs-%d", i),
			ClaimWait:   50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	for i := 0; i < 4; i++ {
		st, err := s.Submit(fmt.Sprintf("t%d", i), quick(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := await(t, s, st.ID); got.State != StateDone {
			t.Fatalf("run %s ended %s: %s", st.ID, got.State, got.Error)
		}
	}

	// Stop pushes each worker's final snapshot, so the merged exposition
	// and the fleet view hold every outcome without waiting on a cadence.
	for _, w := range workers {
		w.Stop()
	}
	ids := []string{workers[0].ID(), workers[1].ID()}
	text := string(httpGet(t, addr, "/metrics"))
	for _, id := range ids {
		if !strings.Contains(text, fmt.Sprintf(`dyflow_worker_claims_total{worker=%q}`, id)) {
			t.Fatalf("worker %s's families missing from /metrics:\n%s", id, text)
		}
	}
	// Coordinator families share the same scrape.
	if !strings.Contains(text, "dyflow_server_fleet_claims_total") ||
		!strings.Contains(text, "dyflow_server_events_total") {
		t.Fatal("merged /metrics is missing coordinator families")
	}

	var mv fleet.MetricsView
	if err := json.Unmarshal(httpGet(t, addr, "/v1/fleet/metrics"), &mv); err != nil {
		t.Fatal(err)
	}
	var totalRuns float64
	for _, snap := range mv.Workers {
		for _, m := range snap.Metrics {
			if m.Name == "dyflow_worker_runs_total" {
				for _, series := range m.Series {
					totalRuns += series.Value
				}
			}
		}
	}
	if len(mv.Workers) != 2 || totalRuns != 4 {
		t.Fatalf("fleet metrics view: %d workers, %v finished runs (want 2, 4)", len(mv.Workers), totalRuns)
	}
	if len(mv.Merged.Metrics) == 0 {
		t.Fatal("merged snapshot empty")
	}

	var view fleet.View
	if err := json.Unmarshal(httpGet(t, addr, "/v1/fleet"), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Workers) != 2 || view.Workers[0].ID > view.Workers[1].ID {
		t.Fatalf("fleet view workers not sorted: %+v", view.Workers)
	}
	var claims, completed int64
	for _, w := range view.Workers {
		if w.LastSeenAgeMs < 0 || w.LastSeenAgeMs > 10_000 {
			t.Fatalf("worker %s heartbeat age %dms", w.ID, w.LastSeenAgeMs)
		}
		claims += w.Claims
		completed += w.Completed
	}
	if claims < 4 || completed != 4 {
		t.Fatalf("fleet view outcome counters: claims %d completed %d", claims, completed)
	}
}

// TestFleetRunStreamCarriesWorkerEvents tails a fleet-executed run and
// checks the claimed/running/terminal events carry the worker's ID.
func TestFleetRunStreamCarriesWorkerEvents(t *testing.T) {
	s, addr := startFleetCoordinator(t, 2*time.Second)
	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "w", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	st, err := s.Submit("alice", quick(31))
	if err != nil {
		t.Fatal(err)
	}
	frames := tailSSE(t, addr, st.ID, "")
	if len(frames) == 0 {
		t.Fatal("no frames from fleet-run stream")
	}
	byType := map[string]events.Event{}
	for _, f := range frames {
		byType[f.typ] = f.ev
	}
	for _, typ := range []string{"claimed", "running", "done"} {
		ev, ok := byType[typ]
		if !ok {
			t.Fatalf("no %s event in %d frames", typ, len(frames))
		}
		if ev.Worker != w.ID() {
			t.Fatalf("%s event attributed to %q, want %q", typ, ev.Worker, w.ID())
		}
	}
	if byType["done"].SimSeconds <= 0 {
		t.Fatalf("done event reports no sim progress: %+v", byType["done"])
	}
}
