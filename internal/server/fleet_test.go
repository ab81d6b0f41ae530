package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server/fleet"
)

// startFleetCoordinator builds a coordinator with no local worker pool —
// only fleet workers can execute — and serves its API on an ephemeral
// port.
func startFleetCoordinator(t *testing.T, ttl time.Duration) (*Server, string) {
	t.Helper()
	s, err := New(Config{Workers: -1, TenantQuota: -1, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

// counter reads one summed metric value from the coordinator registry.
func counter(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	v, _ := s.reg.Value(name)
	return v
}

// TestFleetExecutesRuns covers the happy path of the worker fleet: remote
// workers claim queued runs over HTTP, execute them, upload artifacts to
// the content-addressed blob store, and report results; duplicate jobs
// are answered from the shared cache without a second execution.
func TestFleetExecutesRuns(t *testing.T) {
	s, addr := startFleetCoordinator(t, 2*time.Second)

	w1, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "w1", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Stop()
	w2, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "w2", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Stop()

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(fmt.Sprintf("t%d", i), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st := await(t, s, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
		if st.Worker == "" {
			t.Fatalf("run %s done with no worker recorded", id)
		}
		for _, name := range []string{exp.ArtifactReport, exp.ArtifactMetrics} {
			if blob, err := s.Artifact(id, name); err != nil || len(blob) == 0 {
				t.Fatalf("artifact %s of %s: %v (%d bytes)", name, id, err, len(blob))
			}
		}
	}

	// A duplicate of a fleet-executed job is a fleet-wide cache hit.
	dup, err := s.Submit("dup", quick(0))
	if err != nil {
		t.Fatal(err)
	}
	if dup.State != StateDone || !dup.Cached {
		t.Fatalf("duplicate job not served from the shared cache: %+v", dup)
	}

	// The coordinator marks a run done before the worker's upload counter
	// ticks, so give the counters a moment to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for w1.Completed()+w2.Completed() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("workers report %d completions for 3 runs", w1.Completed()+w2.Completed())
		}
		time.Sleep(time.Millisecond)
	}
	if v := counter(t, s, "dyflow_server_fleet_claims_total"); v < 3 {
		t.Fatalf("fleet_claims_total = %v", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_results_total"); v != 3 {
		t.Fatalf("fleet_results_total = %v", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_workers"); v != 2 {
		t.Fatalf("fleet_workers gauge = %v", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_blobs"); v == 0 {
		t.Fatal("no blobs recorded in the store")
	}
}

// TestFleetWorkerKillChaos is the fleet chaos drill: a worker is killed
// while holding a lease. The coordinator's lease expiry must requeue the
// run, a surviving worker must complete it, and completion must be
// observed exactly once in the run table.
func TestFleetWorkerKillChaos(t *testing.T) {
	const ttl = 150 * time.Millisecond
	s, addr := startFleetCoordinator(t, ttl)

	claimed := make(chan string, 1)
	release := make(chan struct{})
	victim, err := fleet.JoinFleet(fleet.WorkerOptions{
		Coordinator: addr,
		Name:        "victim",
		ClaimWait:   50 * time.Millisecond,
		OnClaim: func(runID string) {
			claimed <- runID
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	doomed, err := s.Submit("alice", quick(100))
	if err != nil {
		t.Fatal(err)
	}
	var doomedRun string
	select {
	case doomedRun = <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never claimed the run")
	}
	if doomedRun != doomed.ID {
		t.Fatalf("victim claimed %s, expected %s", doomedRun, doomed.ID)
	}

	survivor, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "survivor", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Stop()
	var ids []string
	for i := 101; i <= 103; i++ {
		st, err := s.Submit("alice", quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Kill the victim mid-lease: it stops heartbeating and never uploads.
	killDone := make(chan struct{})
	go func() {
		victim.Kill()
		close(killDone)
	}()
	time.Sleep(20 * time.Millisecond) // let Kill flag the worker before unblocking it
	close(release)
	<-killDone

	// The lease lapses, the run requeues, and the survivor finishes it.
	for _, id := range append(ids, doomed.ID) {
		st := await(t, s, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
	}
	final, err := s.RunStatus(doomed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Worker != survivor.ID() {
		t.Fatalf("doomed run finished on %q, survivor is %q", final.Worker, survivor.ID())
	}
	if blob, err := s.Artifact(doomed.ID, exp.ArtifactReport); err != nil || len(blob) == 0 {
		t.Fatalf("doomed run report: %v (%d bytes)", err, len(blob))
	}

	if v := counter(t, s, "dyflow_server_fleet_lease_expiries_total"); v < 1 {
		t.Fatalf("fleet_lease_expiries_total = %v, want >= 1", v)
	}
	// Exactly-once observable completion: 4 runs, 4 terminal transitions.
	if v := counter(t, s, "dyflow_server_runs_total"); v != 4 {
		t.Fatalf("runs_total = %v for 4 submissions", v)
	}
	if victim.Completed() != 0 {
		t.Fatalf("killed worker reports %d completions", victim.Completed())
	}
}

// TestFleetStaleResultIgnored drives the at-most-once gate end to end
// over HTTP: an upload under a lapsed lease must be rejected, counted
// stale, and leave the run untouched for legitimate re-execution.
func TestFleetStaleResultIgnored(t *testing.T) {
	const ttl = 100 * time.Millisecond
	s, addr := startFleetCoordinator(t, ttl)

	// A worker that holds its claim (no heartbeats) until told to go on.
	claimed := make(chan string, 1)
	release := make(chan struct{})
	worker, err := fleet.JoinFleet(fleet.WorkerOptions{
		Coordinator: addr,
		Name:        "sluggish",
		ClaimWait:   50 * time.Millisecond,
		OnClaim: func(runID string) {
			claimed <- runID
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Stop()

	st, err := s.Submit("alice", quick(200))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never claimed the run")
	}
	// Capture the live lease, then wait it out while the worker sits
	// pre-execution without heartbeating.
	s.mu.Lock()
	workerID, leaseID := s.runs[st.ID].Worker, s.runs[st.ID].LeaseID
	s.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for counter(t, s, "dyflow_server_fleet_lease_expiries_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dead worker's upload arrives after the requeue: rejected.
	body, _ := json.Marshal(fleet.ResultRequest{RunID: st.ID, LeaseID: leaseID, Converged: true})
	resp, err := http.Post("http://"+addr+"/v1/workers/"+workerID+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res fleet.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Accepted || res.Reason == "" {
		t.Fatalf("stale upload not rejected: %+v", res)
	}
	if v := counter(t, s, "dyflow_server_fleet_stale_results_total"); v < 1 {
		t.Fatalf("stale_results_total = %v", v)
	}
	if got, _ := s.RunStatus(st.ID); got.State.Terminal() {
		t.Fatalf("stale upload finished the run: %+v", got)
	}

	// Unblock the worker: its first execution aborts on the dead lease,
	// then it re-claims the requeued run and finishes it for real.
	close(release)
	if final := await(t, s, st.ID); final.State != StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
		t.Fatalf("runs_total = %v for 1 submission", v)
	}
}

// claimSeen is an http.RoundTripper that closes sent when the worker's
// first claim request goes out.
type claimSeen struct {
	once sync.Once
	sent chan struct{}
}

func (c *claimSeen) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/claim") {
		c.once.Do(func() { close(c.sent) })
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerStopCancelsParkedClaim: a worker draining on an empty queue
// does not wait out its claim's long-poll window — Stop cancels the
// parked claim.
func TestWorkerStopCancelsParkedClaim(t *testing.T) {
	_, addr := startFleetCoordinator(t, 2*time.Second)
	seen := &claimSeen{sent: make(chan struct{})}
	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "idle",
		ClaimWait: 5 * time.Second, Client: &http.Client{Transport: seen}})
	if err != nil {
		t.Fatal(err)
	}
	<-seen.sent
	start := time.Now()
	w.Stop()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Stop took %v with a claim parked on an empty queue, want < 1s", d)
	}
}

// TestBlobHeadLeavesDurableBlobOnDisk: a worker's HEAD probe of a blob a
// previous process wrote is answered from the store's index — 200 with the
// blob's Content-Length — without reading it, so the blob stays on disk
// and dyflow_server_fleet_blobs does not move. A GET still serves its
// bytes.
func TestBlobHeadLeavesDurableBlobOnDisk(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s1, st.ID); st.State != StateDone || len(st.Artifacts) == 0 {
		t.Fatalf("run %s ended %s with artifacts %v", st.ID, st.State, st.Artifacts)
	}
	want, err := s1.Artifact(st.ID, st.Artifacts[0])
	if err != nil {
		t.Fatal(err)
	}
	digest := fleet.Digest(want)
	s1.Close()

	s2, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h := s2.Handler()
	resident := counter(t, s2, "dyflow_server_fleet_blobs")
	head := httptest.NewRecorder()
	h.ServeHTTP(head, httptest.NewRequest(http.MethodHead, "/v1/blobs/"+digest, nil))
	if head.Code != http.StatusOK || head.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
		t.Fatalf("HEAD answered %d with Content-Length %q, want 200 and %d", head.Code, head.Header().Get("Content-Length"), len(want))
	}
	if v := counter(t, s2, "dyflow_server_fleet_blobs"); v != resident {
		t.Fatalf("a HEAD moved dyflow_server_fleet_blobs from %v to %v", resident, v)
	}
	missing := httptest.NewRecorder()
	h.ServeHTTP(missing, httptest.NewRequest(http.MethodHead, "/v1/blobs/"+fleet.Digest([]byte("absent")), nil))
	if missing.Code != http.StatusNotFound {
		t.Fatalf("HEAD of an absent blob answered %d, want 404", missing.Code)
	}
	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/blobs/"+digest, nil))
	if get.Code != http.StatusOK || !bytes.Equal(get.Body.Bytes(), want) {
		t.Fatalf("GET answered %d with %d bytes, want 200 and the blob's %d", get.Code, get.Body.Len(), len(want))
	}
}

// TestBlobDigestOutsideStoreIsNotFound: a digest that is not 64 lowercase
// hex characters names no blob. A path-escaping one (`..%2F`, unescaped by
// the mux into the path value) gets 404 on HEAD, GET and PUT alike, even
// though the file it would reach outside the blob directory exists, and a
// PUT to one writes nothing there.
func TestBlobDigestOutsideStoreIsNotFound(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "secret"), []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: filepath.Join(root, "ckpt"), Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, digest := range []string{
		"..%2Fsecret", // blobs/.. then ../secret: root/secret
		strings.ToUpper(fleet.Digest([]byte("x"))),
		fleet.Digest([]byte("x"))[:63],
	} {
		for _, method := range []string{http.MethodHead, http.MethodGet, http.MethodPut} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/blobs/"+digest, strings.NewReader("x")))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s /v1/blobs/%s answered %d with Content-Length %q, want 404",
					method, digest, rec.Code, rec.Header().Get("Content-Length"))
			}
		}
	}
	if got, err := os.ReadFile(filepath.Join(root, "secret")); err != nil || string(got) != "not a blob" {
		t.Fatalf("the file outside the blob directory reads %q (%v) after the PUTs", got, err)
	}
}
