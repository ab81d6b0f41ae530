package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server/fleet"
)

// queued is the number of runs in s's queue.
func queued(s *Server) int {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	return len(s.queue.ids)
}

// quick is the cheap deterministic job the tests submit.
func quick(seed int64) exp.Job {
	return exp.Job{Scenario: exp.ScenarioQuickstart, Machine: "dt2", Seed: seed}
}

// await polls a run to a terminal state.
func await(t *testing.T, s *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.RunStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// metricsText renders the server registry's Prometheus exposition.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSubmitExecuteArtifacts(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Tenant != "alice" {
		t.Fatalf("submitted status %+v", st)
	}
	st = await(t, s, st.ID)
	if st.State != StateDone || !st.Converged || st.Cached {
		t.Fatalf("final status %+v", st)
	}
	if st.SimSeconds <= 0 {
		t.Fatalf("done run reports no sim progress: %+v", st)
	}
	for _, name := range []string{exp.ArtifactReport, exp.ArtifactGantt, exp.ArtifactPerfetto, exp.ArtifactMetrics} {
		blob, err := s.Artifact(st.ID, name)
		if err != nil || len(blob) == 0 {
			t.Fatalf("artifact %s: %v (%d bytes)", name, err, len(blob))
		}
	}
	if _, err := s.Artifact(st.ID, "nope"); err == nil {
		t.Fatal("unknown artifact served")
	}
}

// TestCacheDeterminismRegression is the satellite regression test: the
// same job twice yields byte-identical artifacts, with the second
// submission answered from the cache (no re-simulation) and the hit
// recorded in dyflow_server_cache_hits_total.
func TestCacheDeterminismRegression(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Submit("alice", quick(5))
	if err != nil {
		t.Fatal(err)
	}
	first = await(t, s, first.ID)
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run %+v", first)
	}

	second, err := s.Submit("bob", quick(5))
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("identical resubmission not served from cache: %+v", second)
	}
	for _, name := range []string{exp.ArtifactReport, exp.ArtifactGantt, exp.ArtifactPerfetto, exp.ArtifactMetrics} {
		a, err := s.Artifact(first.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Artifact(second.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("artifact %s differs between original and cached run", name)
		}
	}
	text := metricsText(t, s)
	if !strings.Contains(text, `dyflow_server_cache_hits_total{tenant="bob"} 1`) {
		t.Fatalf("cache hit not recorded in metrics:\n%s", text)
	}

	// A different seed is a different key: no false sharing.
	third, err := s.Submit("bob", quick(6))
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different job served from cache")
	}
	await(t, s, third.ID)
}

func TestTenantQuota(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 2; i++ {
		if _, err := s.Submit("alice", quick(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.Submit("alice", quick(99))
	var api *APIError
	if !errors.As(err, &api) || api.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit returned %v", err)
	}
	// The quota is per tenant: another tenant is unaffected.
	if _, err := s.Submit("bob", quick(99)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if !strings.Contains(metricsText(t, s), `dyflow_server_quota_rejections_total{tenant="alice"} 1`) {
		t.Fatal("quota rejection not recorded in metrics")
	}
}

func TestQueueBackpressure(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: -1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(fmt.Sprintf("t%d", i), quick(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.Submit("t9", quick(9))
	var api *APIError
	if !errors.As(err, &api) || api.Code != http.StatusTooManyRequests || api.RetryAfter <= 0 {
		t.Fatalf("queue-full submit returned %v", err)
	}
	if queued(s) != 2 {
		t.Fatalf("queue depth %d after rejection", queued(s))
	}
	if !strings.Contains(metricsText(t, s), "dyflow_server_queue_rejections_total 1") {
		t.Fatal("queue rejection not recorded in metrics")
	}
}

func TestCancelQueued(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err = s.Cancel(st.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel: %v %+v", err, st)
	}
	// The quota slot is released.
	if _, err := s.Submit("alice", quick(2)); err != nil {
		t.Fatalf("quota slot not released by cancel: %v", err)
	}
	// Canceling a terminal run is a no-op.
	if again, err := s.Cancel(st.ID); err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %v %+v", err, again)
	}
}

// TestCancelRunning cancels a run its worker is executing. The worker
// learns of it from its next heartbeat, so the run is an xgc world: many
// heartbeats long, where a quickstart world is over before its first.
func TestCancelRunning(t *testing.T) {
	s, err := New(Config{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	started := make(chan string, 1)
	if err := s.startLocal(fleet.WorkerOptions{OnClaim: func(id string) { started <- id }}); err != nil {
		t.Fatal(err)
	}

	st, err := s.Submit("alice", exp.Job{Scenario: exp.ScenarioXGC, Machine: "dt2", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("run never started")
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	st = await(t, s, st.ID)
	if st.State != StateCanceled {
		t.Fatalf("running run canceled to %s (err %q)", st.State, st.Error)
	}
}

// TestKillRestartResumesQueue is the crash acceptance test: hard-kill a
// server with acknowledged-but-unfinished submissions and verify the next
// process resumes every one of them from the history store alone.
func TestKillRestartResumesQueue(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: -1, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := s1.Submit(fmt.Sprintf("tenant-%d", i%3), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	s1.Close() // kill

	s2, err := New(Config{Workers: 2, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(listRuns(t, s2)); got != 6 {
		t.Fatalf("restored %d of 6 runs", got)
	}
	for _, id := range ids {
		st := await(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("restored run %s ended %s: %s", id, st.State, st.Error)
		}
	}
	if !strings.Contains(metricsText(t, s2), "dyflow_server_restore_requeued_total 6") {
		t.Fatal("requeued count not recorded in metrics")
	}
}

// TestKillRestartMidExecution kills a server while workers are mid-
// simulation: completed runs restore done (with artifacts), interrupted
// and queued runs re-execute, and nothing is lost.
func TestKillRestartMidExecution(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: 2, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		st, err := s1.Submit(fmt.Sprintf("tenant-%d", i%4), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Let some runs finish and some be caught mid-flight, then kill.
	time.Sleep(20 * time.Millisecond)
	s1.Close()

	s2, err := New(Config{Workers: 2, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(listRuns(t, s2)); got != 8 {
		t.Fatalf("restored %d of 8 runs", got)
	}
	for _, id := range ids {
		st := await(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s after restart: %s", id, st.State, st.Error)
		}
		if blob, err := s2.Artifact(id, exp.ArtifactReport); err != nil || len(blob) == 0 {
			t.Fatalf("run %s report after restart: %v (%d bytes)", id, err, len(blob))
		}
	}
}

// TestRestoreAfterGracefulShutdown verifies queued work survives Shutdown
// and a successor picks it up from the history store.
func TestRestoreAfterGracefulShutdown(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", quick(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := await(t, s2, st.ID); got.State != StateDone {
		t.Fatalf("queued run %s after graceful restart: %s", st.ID, got.State)
	}
}

// TestHTTPAPI exercises the full HTTP surface on an ephemeral port.
func TestHTTPAPI(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Start returned unbound address %s", addr)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := "http://" + addr

	body, _ := json.Marshal(SubmitRequest{Tenant: "alice", Job: quick(2)})
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}

	get := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, data)
		}
		return data
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %s", st.State)
		}
		time.Sleep(time.Millisecond)
		if err := json.Unmarshal(get("/v1/runs/"+st.ID, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
	}

	report := get("/v1/runs/"+st.ID+"/artifacts/report", http.StatusOK)
	var rep exp.Report
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	var list struct {
		Runs []Status `json:"runs"`
	}
	if err := json.Unmarshal(get("/v1/runs", http.StatusOK), &list); err != nil || len(list.Runs) != 1 {
		t.Fatalf("list: %v (%d runs)", err, len(list.Runs))
	}
	get("/v1/runs/nope", http.StatusNotFound)
	get("/healthz", http.StatusOK)
	if text := string(get("/metrics", http.StatusOK)); !strings.Contains(text, `dyflow_server_submissions_total{tenant="alice"} 1`) {
		t.Fatalf("/metrics missing submission count:\n%s", text)
	}

	// Submitting garbage is a 400, not a queued run.
	resp, err = http.Post(base+"/v1/runs", "application/json", strings.NewReader(`{"scenario":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scenario: %s", resp.Status)
	}
}
