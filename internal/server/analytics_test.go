package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// TestAnalyticsAggregates drives a mixed campaign — two tenants, a cache
// hit, distinct seeds — and checks the cross-campaign view: counts,
// queue-wait and execution percentiles from the phase timestamps, cache
// hit rate, and per-tenant/per-scenario groups.
func TestAnalyticsAggregates(t *testing.T) {
	s, err := New(Config{Workers: 2, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(fmt.Sprintf("tenant-%d", i%2), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := await(t, s, id); st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
	}
	// One duplicate: a cache hit that never queues or executes.
	dup, err := s.Submit("tenant-0", quick(0))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached {
		t.Fatalf("duplicate not cached: %+v", dup)
	}

	// The phase timestamps behind the aggregates (the status satellite).
	st, err := s.RunStatus(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.QueuedAt == nil || st.ClaimedAt == nil || st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("done run missing phase timestamps: %+v", st)
	}
	if st.ClaimedAt.Before(*st.QueuedAt) || st.FinishedAt.Before(*st.StartedAt) {
		t.Fatalf("phase timestamps out of order: %+v", st)
	}
	if dupSt, err := s.RunStatus(dup.ID); err != nil || dupSt.QueuedAt != nil || dupSt.ClaimedAt != nil {
		t.Fatalf("cached run carries queue/claim timestamps: %+v (%v)", dupSt, err)
	}

	a := s.AnalyticsWithTrends(0, 0)
	if a.Runs != 5 || a.ByState[StateDone] != 5 {
		t.Fatalf("analytics counts %+v", a)
	}
	if a.CacheHits != 1 || a.CacheHitRate != 0.2 {
		t.Fatalf("cache hits %d rate %v", a.CacheHits, a.CacheHitRate)
	}
	// Four runs queued and executed; the cached one contributes to neither
	// latency distribution.
	if a.QueueWait.Count != 4 || a.Execution.Count != 4 {
		t.Fatalf("latency sample counts: queue %d exec %d", a.QueueWait.Count, a.Execution.Count)
	}
	if a.Execution.P50 <= 0 || a.Execution.Max < a.Execution.P50 {
		t.Fatalf("execution percentiles %+v", a.Execution)
	}
	if a.QueueWait.P50 < 0 || a.QueueWait.Max < a.QueueWait.P50 {
		t.Fatalf("queue-wait percentiles %+v", a.QueueWait)
	}
	if len(a.Tenants) != 2 || a.Tenants[0].Name != "tenant-0" || a.Tenants[1].Name != "tenant-1" {
		t.Fatalf("tenant groups %+v", a.Tenants)
	}
	if a.Tenants[0].Runs != 3 || a.Tenants[0].CacheHits != 1 || a.Tenants[1].Runs != 2 {
		t.Fatalf("tenant group counts %+v", a.Tenants)
	}
	if len(a.Scenarios) != 1 || a.Scenarios[0].Name != quick(0).Scenario || a.Scenarios[0].Runs != 5 {
		t.Fatalf("scenario groups %+v", a.Scenarios)
	}

	// The same view over HTTP.
	resp, err := http.Get("http://" + addr + "/v1/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/analytics: %s (%v)", resp.Status, err)
	}
	var over Analytics
	if err := json.Unmarshal(data, &over); err != nil {
		t.Fatal(err)
	}
	if over.Runs != a.Runs || over.Execution.Count != a.Execution.Count {
		t.Fatalf("HTTP analytics %+v != computed %+v", over, a)
	}
}

// TestAnalyticsCountsRequeues checks the requeue-rate counters surface:
// a restore-requeued run shows up in RestoreRequeues.
func TestAnalyticsCountsRequeues(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Workers: -1, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", quick(21))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := New(Config{Workers: 2, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	await(t, s2, st.ID)
	if a := s2.AnalyticsWithTrends(0, 0); a.RestoreRequeues != 1 {
		t.Fatalf("RestoreRequeues = %d, want 1", a.RestoreRequeues)
	}
}
