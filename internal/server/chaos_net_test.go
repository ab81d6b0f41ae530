package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// Coordinator-side companions to the faultnet sweep (loadgen.TestChaosNetSweep):
// each test here pins one specific degraded-network contract the sweep
// exercises statistically — result idempotency, the upload-failure
// requeue path, and long-poll disconnects.

// postFleetJSON posts one JSON body to the coordinator's worker API and
// decodes the reply, returning the HTTP status.
func postFleetJSON(t *testing.T, addr, path string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	if out != nil && resp.StatusCode < 300 && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode
}

// awaitRunEvent polls a run's event journal until an event of the given
// type and reason appears.
func awaitRunEvent(t *testing.T, sub *events.Sub, typ events.Type, reason string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		evs, _ := sub.Poll()
		for _, ev := range evs {
			if ev.Type == typ && ev.Reason == reason {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("event %s/%s never appeared on the run's stream", typ, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultResultRetransmitDeduplicated is the lost-200 drill: a worker
// whose completed-result reply was eaten by the network retransmits the
// same ResultRequest. The lease ID is the idempotency key, so the retry
// must be acknowledged as a duplicate — not rejected stale, and above
// all not applied twice.
func TestFaultResultRetransmitDeduplicated(t *testing.T) {
	s, addr := startFleetCoordinator(t, 2*time.Second)

	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "w", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	st, err := s.Submit("alice", quick(300))
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}

	// The lease the run completed under. The terminal run has been
	// evicted to the history store, so the (run, lease) pair lives in
	// the doneRings dedup window Result consults.
	s.mu.Lock()
	doneLease := s.doneRings[len(s.doneRings)-1].lease
	s.mu.Unlock()
	if doneLease == "" {
		t.Fatal("terminal run recorded no completing lease")
	}
	workers := s.fleet.Workers()
	if len(workers) != 1 {
		t.Fatalf("fleet has %d workers, want 1", len(workers))
	}
	workerID := workers[0].ID

	// Retransmit the completion as the worker's retry loop would.
	var res fleet.ResultResponse
	code := postFleetJSON(t, addr, "/v1/workers/"+workerID+"/result",
		fleet.ResultRequest{RunID: st.ID, LeaseID: doneLease, Converged: true}, &res)
	if code != http.StatusOK || !res.Accepted || res.Reason != "duplicate" {
		t.Fatalf("retransmit answered %d %+v, want Accepted/duplicate", code, res)
	}

	if v := counter(t, s, "dyflow_server_fleet_duplicate_results_total"); v != 1 {
		t.Fatalf("duplicate_results_total = %v, want 1", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_stale_results_total"); v != 0 {
		t.Fatalf("stale_results_total = %v — a retransmit must not count stale", v)
	}
	if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
		t.Fatalf("runs_total = %v — the duplicate re-finished the run", v)
	}
	if final, _ := s.RunStatus(st.ID); final.State != StateDone {
		t.Fatalf("run left %s after duplicate upload", final.State)
	}
}

// TestFaultUploadFailureRequeuesToEventStream drives the requeue contract
// over the wire, deterministically: a (hand-rolled) worker claims a run
// and reports Requeue — its execution succeeded but the blob plane
// refused every artifact PUT. The coordinator must accept, publish
// queued/result_upload_failed on the run's stream, and let another
// worker finish the run with exactly one terminal transition.
func TestFaultUploadFailureRequeuesToEventStream(t *testing.T) {
	s, addr := startFleetCoordinator(t, 10*time.Second)

	st, err := s.Submit("alice", quick(301))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.events.Subscribe(st.ID, 0)
	defer sub.Close()

	var reg fleet.RegisterResponse
	if code := postFleetJSON(t, addr, "/v1/workers/register",
		fleet.RegisterRequest{Name: "manual", Slots: 1}, &reg); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	var claim fleet.ClaimResponse
	if code := postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/claim",
		fleet.ClaimRequest{WaitMs: 10000}, &claim); code != http.StatusOK || claim.RunID != st.ID {
		t.Fatalf("claim: %d %+v, want run %s", code, claim, st.ID)
	}

	var res fleet.ResultResponse
	code := postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/result",
		fleet.ResultRequest{RunID: st.ID, LeaseID: claim.LeaseID,
			Requeue: true, Error: "artifact upload: injected outage"}, &res)
	if code != http.StatusOK || !res.Accepted || res.Reason != "requeued" {
		t.Fatalf("requeue answered %d %+v, want Accepted/requeued", code, res)
	}
	awaitRunEvent(t, sub, events.TypeQueued, "result_upload_failed")

	// A healthy worker picks the requeued run up and finishes it.
	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: "healthy", ClaimWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if final := await(t, s, st.ID); final.State != StateDone {
		t.Fatalf("requeued run ended %s: %s", final.State, final.Error)
	}
	if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
		t.Fatalf("runs_total = %v for 1 submission", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_lease_expiries_total"); v != 0 {
		t.Fatalf("lease_expiries_total = %v — the requeue path must release the lease, not abandon it", v)
	}
}

// blobOutageTransport fails every blob RPC until healed, and shrinks the
// lease TTL a claim response reports. The worker then believes its lease
// is far shorter than it really is, so it exhausts its artifact-upload
// retries and hands the lease back (Requeue) long before the
// coordinator's expiry sweep could race it — the deterministic way to
// drive the upload-failure requeue end to end through a real Worker.
type blobOutageTransport struct {
	healed  atomic.Bool
	leaseMs int64
	next    http.RoundTripper
}

func (tr *blobOutageTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tr.healed.Load() && strings.HasPrefix(r.URL.Path, "/v1/blobs/") {
		if r.Body != nil {
			r.Body.Close() // a RoundTripper closes the body it was handed
		}
		return nil, fmt.Errorf("blob outage: %s %s refused", r.Method, r.URL.Path)
	}
	resp, err := tr.next.RoundTrip(r)
	if err != nil || tr.leaseMs <= 0 ||
		!strings.HasSuffix(r.URL.Path, "/claim") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	var claim fleet.ClaimResponse
	if json.Unmarshal(body, &claim) == nil && claim.RunID != "" {
		claim.LeaseTTLMs = tr.leaseMs
		body, _ = json.Marshal(claim)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}

// TestFaultWorkerBlobOutageRequeuesAndRecovers is the full loop of the
// degraded-blob-plane story: a real Worker executes a run, cannot upload
// any artifact, retries with backoff until its (shrunk) lease horizon,
// hands the run back for requeue — observable on the event stream — and
// completes it after the outage heals. No lease expiry, no stale result,
// exactly one terminal transition.
func TestFaultWorkerBlobOutageRequeuesAndRecovers(t *testing.T) {
	s, addr := startFleetCoordinator(t, 10*time.Second)

	tr := &blobOutageTransport{leaseMs: 400, next: http.DefaultTransport}
	w, err := fleet.JoinFleet(fleet.WorkerOptions{
		Coordinator: addr,
		Name:        "outage",
		ClaimWait:   50 * time.Millisecond,
		CallTimeout: 2 * time.Second,
		BackoffSeed: 11,
		Client:      &http.Client{Timeout: 10 * time.Second, Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	st, err := s.Submit("alice", quick(302))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.events.Subscribe(st.ID, 0)
	defer sub.Close()

	// The worker must give the run back once its upload horizon lapses…
	awaitRunEvent(t, sub, events.TypeQueued, "result_upload_failed")
	// …and finish it for real once the blob plane heals.
	tr.healed.Store(true)
	if final := await(t, s, st.ID); final.State != StateDone {
		t.Fatalf("run ended %s after the outage healed: %s", final.State, final.Error)
	}

	if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
		t.Fatalf("runs_total = %v for 1 submission", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_lease_expiries_total"); v != 0 {
		t.Fatalf("lease_expiries_total = %v — the requeue must beat the sweep by construction", v)
	}
	if v := counter(t, s, "dyflow_server_fleet_stale_results_total"); v != 0 {
		t.Fatalf("stale_results_total = %v", v)
	}
	if v, _ := w.Registry().Value("dyflow_worker_rpc_retries_total"); v < 1 {
		t.Fatalf("worker_rpc_retries_total = %v — the outage was never retried through", v)
	}
}

// TestFaultClaimLongPollHonorsDisconnect pins the partitioned-worker
// contract on the claim path: a client that vanishes mid-long-poll must
// not pin a handler goroutine for the full window.
func TestFaultClaimLongPollHonorsDisconnect(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: -1, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := s.fleet.RegisterAs("", "lurker", 1)

	body, _ := json.Marshal(fleet.ClaimRequest{WaitMs: 25000})
	req := httptest.NewRequest(http.MethodPost, "/v1/workers/"+id+"/claim", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(req.Context())
	req = req.WithContext(ctx)
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel() // the worker's side of the connection drops
	}()

	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	held := time.Since(start)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("disconnected claim answered %d, want 204", rec.Code)
	}
	if held >= 5*time.Second {
		t.Fatalf("handler held the goroutine %s after the client disconnected (25s window)", held)
	}
}

// lostHeartbeatReplies is the coordinator of a worker whose heartbeat
// replies are all lost: the coordinator applies each heartbeat — its
// spans are published — and the worker is answered with an error.
type lostHeartbeatReplies struct {
	*Server
	lost atomic.Int64 // spans in heartbeats whose reply was lost
}

func (c *lostHeartbeatReplies) Heartbeat(ctx context.Context, workerID string, req fleet.HeartbeatRequest) (fleet.HeartbeatResponse, error) {
	if _, err := c.Server.Heartbeat(ctx, workerID, req); err != nil {
		return fleet.HeartbeatResponse{}, err
	}
	c.lost.Add(int64(len(req.Spans)))
	return fleet.HeartbeatResponse{}, fmt.Errorf("heartbeat reply lost")
}

// TestLostHeartbeatReplyDoesNotDuplicateSpans: a heartbeat whose reply is
// lost was applied, so the worker does not send its spans again — each
// span is published on the run's stream at most once — and counts them as
// dropped in dyflow_worker_span_drops_total.
func TestLostHeartbeatReplyDoesNotDuplicateSpans(t *testing.T) {
	s := newCoordinator(t, Config{LeaseTTL: time.Minute})
	c := &lostHeartbeatReplies{Server: s}
	w, err := fleet.Start(c, quickWorker())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	st, err := s.Submit("alice", xgc(1))
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}
	sub := s.events.Subscribe(st.ID, 0)
	defer sub.Close()
	evs, missed := sub.Poll()
	if missed > 0 {
		t.Fatalf("ring overran by %d events", missed)
	}
	seen := map[string]int{}
	for _, ev := range evs {
		if ev.Type != events.TypeSpan {
			continue
		}
		var span struct{ ID string }
		if data, err := json.Marshal(ev.Span); err != nil || json.Unmarshal(data, &span) != nil {
			t.Fatalf("span event %+v does not encode: %v", ev, err)
		}
		seen[span.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("span %q published %d times", id, n)
		}
	}
	lost := c.lost.Load()
	if lost == 0 {
		t.Fatal("no heartbeat carried a span: nothing was tested")
	}
	if v, _ := w.Registry().Value("dyflow_worker_span_drops_total"); v != float64(lost) {
		t.Errorf("dyflow_worker_span_drops_total = %v, want the %d spans of the lost replies", v, lost)
	}
}
