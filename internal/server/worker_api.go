package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/server/fleet"
)

// The coordinator side of the worker API (docs/SERVICE.md, "Workers"), in
// the shape of the client API: one method per call holding all of its logic
// — together they make *Server a fleet.Coordinator, which is how the worker
// sharing this process calls them — and one handler per route that decodes,
// calls the method and encodes what it returned, so nothing is written to a
// connection under s.mu. Wire types live in internal/server/fleet so the
// two sides cannot drift apart.
//
//	POST /v1/workers/register           join the fleet
//	POST /v1/workers/{id}/claim         lease one queued run (204 = empty)
//	POST /v1/workers/{id}/heartbeat     renew a lease, learn of cancellation
//	POST /v1/workers/{id}/result        upload an outcome (lease-gated)
//	POST /v1/workers/{id}/metrics       push a registry snapshot
//	PUT  /v1/blobs/                     upload a run's artifact blobs
//	PUT  /v1/blobs/{digest}             upload one blob (older workers)
//	GET  /v1/blobs/{digest}             fetch a blob (HEAD probes existence)
//	GET  /v1/fleet                      workers + leases view

var _ fleet.Coordinator = (*Server)(nil)

// localWorkerID is the reserved ID of the worker that shares the
// coordinator's process (cfg.Workers slots).
const localWorkerID = "local"

// maxBlobBytes bounds one blob upload, a batch's whole body included.
const maxBlobBytes = 128 << 20

// blobReadStep is the most an upload's buffer holds before its bytes
// arrive. It is more than all of any job scenario's artifacts together
// (artifact_bytes in internal/exp/testdata/budget.json), so such an upload
// is one allocation of its length; a longer one doubles its buffer as
// bytes come in, never past the declared length.
const blobReadStep = 1 << 20

// maxClaimWait bounds one claim's wait for a run to be enqueued.
const maxClaimWait = 30 * time.Second

// fleetRoutes mounts the worker API on the coordinator's mux. route is
// Handler's counting registrar.
func (s *Server) fleetRoutes(route func(pattern, name string, h http.HandlerFunc)) {
	route("POST /v1/workers/register", "worker_register", s.handleRegister)
	route("POST /v1/workers/{id}/claim", "worker_claim", s.handleClaim)
	route("POST /v1/workers/{id}/heartbeat", "worker_heartbeat", s.handleHeartbeat)
	route("POST /v1/workers/{id}/result", "worker_result", s.handleResult)
	route("POST /v1/workers/{id}/metrics", "worker_metrics", s.handleWorkerMetrics)
	route("PUT /v1/blobs/{$}", "blob_batch", s.handleBlobsPut)
	route("PUT /v1/blobs/{digest}", "blob_put", s.handleBlobPut)
	route("GET /v1/blobs/{digest}", "blob_get", s.handleBlobGet)
	route("GET /v1/fleet", "fleet", s.handleFleetView)
	route("GET /v1/fleet/metrics", "fleet_metrics", s.handleFleetMetrics)
}

// decodeBody reads a worker call's JSON body into v, answering 400 itself
// when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, call string, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad " + call + " body: " + err.Error()})
		return false
	}
	return true
}

// Register is the register call made from inside the process, which is what
// calling it as a method means: the worker gets the reserved ID, and is told
// to heartbeat as often as progress events are published — a heartbeat that
// is a method call costs two uncontended mutexes — so a run on `-workers N`
// shows its progress, and sees a cancel or a shutdown, within 10 ms.
func (s *Server) Register(_ context.Context, req fleet.RegisterRequest) (fleet.RegisterResponse, error) {
	return s.register(localWorkerID, req, min(progressEventEvery, s.cfg.LeaseTTL/3)), nil
}

// register admits a worker under id ("" mints one) and tells it its lease
// discipline.
func (s *Server) register(id string, req fleet.RegisterRequest, heartbeat time.Duration) fleet.RegisterResponse {
	return fleet.RegisterResponse{
		WorkerID:    s.fleet.RegisterAs(id, req.Name, req.Slots),
		LeaseTTLMs:  s.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMs: heartbeat.Milliseconds(),
	}
}

// handleRegister admits a worker from the network: a minted ID, a heartbeat
// every third of the TTL.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if decodeBody(w, r, "register", &req) {
		s.writeJSON(w, http.StatusOK, s.register("", req, s.cfg.LeaseTTL/3))
	}
}

// Claim hands the worker one queued run under a fresh lease, parked up to
// wait while the queue is empty: it wakes on the enqueue, not on a timer.
func (s *Server) Claim(ctx context.Context, workerID string, wait time.Duration) (fleet.ClaimResponse, bool, error) {
	if !s.fleet.Touch(workerID) { // an empty-queue poll still proves liveness
		return fleet.ClaimResponse{}, false, &APIError{Code: http.StatusNotFound, Msg: "unknown worker " + workerID}
	}
	deadline := time.NewTimer(min(max(wait, 0), maxClaimWait))
	defer deadline.Stop()
	for {
		select {
		case <-s.stopped:
			return fleet.ClaimResponse{}, false, nil
		default:
		}
		id, wake := s.queue.tryPop()
		if id != "" {
			if resp, ok, err := s.leaseRun(workerID, id); ok || err != nil {
				return resp, ok, err
			}
			continue // that run finished at claim time (canceled/cached); try the next
		}
		// Parked until whichever comes first: the next enqueue, the window
		// closing, the caller going away (a partitioned or killed worker must
		// not pin a handler goroutine for the full window), or shutdown.
		select {
		case <-wake:
		case <-deadline.C:
			return fleet.ClaimResponse{}, false, nil
		case <-ctx.Done():
			return fleet.ClaimResponse{}, false, nil
		case <-s.stopped:
			return fleet.ClaimResponse{}, false, nil
		}
	}
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req fleet.ClaimRequest
	if !decodeBody(w, r, "claim", &req) {
		return
	}
	resp, ok, err := s.Claim(r.Context(), r.PathValue("id"), time.Duration(req.WaitMs)*time.Millisecond)
	switch {
	case err != nil:
		httpError(w, err)
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// Heartbeat renews a lease, records the run's progress and the spans that
// completed since the last one, and tells the worker whether to go on.
// Cancel is also what a stopping coordinator says to every run: the result
// that comes back for it is requeued, not canceled (Result).
func (s *Server) Heartbeat(_ context.Context, workerID string, req fleet.HeartbeatRequest) (fleet.HeartbeatResponse, error) {
	s.mu.Lock()
	run := s.runs[req.RunID]
	if !run.leasedTo(workerID, req.LeaseID) {
		s.mu.Unlock()
		return fleet.HeartbeatResponse{}, nil
	}
	s.renewLeaseLocked(run)
	s.met.fleetHeartbeats.Inc()
	run.simNow.Store(req.SimNs)
	resp := fleet.HeartbeatResponse{Valid: true, Cancel: s.stopping || run.cancel.Load()}
	s.progressEvent(run, workerID, req.SimNs)
	s.mu.Unlock()
	s.fleet.Touch(workerID)
	s.appendWorkerSpans(req.RunID, workerID, req.Spans)
	return resp, nil
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.HeartbeatRequest
	if decodeBody(w, r, "heartbeat", &req) {
		resp, _ := s.Heartbeat(r.Context(), r.PathValue("id"), req)
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// Result applies a worker's outcome — if and only if the worker still holds
// the run's live lease. A lapsed, revoked, or superseded lease means the
// coordinator already requeued (or canceled) the run; the upload is counted
// stale and ignored, which is what makes completion at-most-once
// *observable* even though a run may execute more than once.
//
// The lease ID doubles as the result's idempotency key: when a worker
// retransmits a completion whose acknowledgement was lost in flight, the
// run is already terminal under that very lease — the retry is acknowledged
// Accepted (Reason "duplicate") and counted in
// dyflow_server_fleet_duplicate_results_total instead of stale. Either
// way, a late result for a run that is done is first checked against the
// applied one (checkLateResultLocked).
func (s *Server) Result(_ context.Context, workerID string, req fleet.ResultRequest) (fleet.ResultResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run := s.runs[req.RunID]
	if !run.leasedTo(workerID, req.LeaseID) {
		s.checkLateResultLocked(workerID, &req)
		if s.duplicateResultLocked(run, &req) {
			s.met.dupResults.Inc()
			return fleet.ResultResponse{Accepted: true, Reason: "duplicate"}, nil
		}
		s.met.staleResults.Inc()
		return fleet.ResultResponse{Reason: "lease not current; result ignored"}, nil
	}
	s.met.fleetResults.Inc()
	s.appendWorkerSpans(req.RunID, workerID, req.Spans)

	// The run is leased, so it is running: every edge below is in the table.
	state := StateDone
	switch {
	case req.Requeue:
		// The worker executed the run but could not deliver its artifacts
		// (degraded blob plane): it hands the still-valid lease back and
		// the run returns to the queue rather than failing.
		s.logf("server: worker %s requeued %s: %s", workerID, req.RunID, req.Error)
		s.resetToQueuedLocked(run, "result_upload_failed")
		s.queue.requeue(run.ID)
		s.fleet.Touch(workerID)
		return fleet.ResultResponse{Accepted: true, Reason: "requeued"}, nil
	case req.Canceled && !run.cancel.Load():
		// Nobody canceled this run: the worker was told to stop because the
		// coordinator is stopping. The run's queued record carries it into
		// the next process; it is not pushed for this one to claim again.
		s.resetToQueuedLocked(run, "shutdown")
		s.fleet.Touch(workerID)
		return fleet.ResultResponse{Accepted: true, Reason: "requeued"}, nil
	case req.Canceled:
		state = StateCanceled
	case req.Error != "":
		state = StateFailed
	default:
		// Every referenced blob must already be in the store; otherwise
		// the "done" run would 404 its artifacts, so requeue instead.
		for name, digest := range req.Artifacts {
			if !s.blobs.Has(digest) {
				s.logf("server: result for %s references missing blob %.12s (%s); requeued", req.RunID, digest, name)
				s.resetToQueuedLocked(run, "missing_blob")
				s.queue.requeue(run.ID)
				s.fleet.Touch(workerID)
				return fleet.ResultResponse{Reason: "artifact blob missing; run requeued"}, nil
			}
		}
		s.applyResultLocked(run, req.Converged, req.SimEndNs, req.Artifacts)
		if _, have := s.cachedLocked(run.Key); !have {
			s.cache[run.Key] = run.ID
		}
		s.met.runSeconds.Observe(time.Since(nsTime(run.StartedAtNs)).Seconds())
	}
	s.finishLocked(run, state, "result", req.Error)
	s.fleet.NoteOutcome(workerID, string(state))
	return fleet.ResultResponse{Accepted: true}, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req fleet.ResultRequest
	if decodeBody(w, r, "result", &req) {
		resp, _ := s.Result(r.Context(), r.PathValue("id"), req)
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// duplicateResultLocked reports whether this upload is a retransmission of
// a result already applied: the run (nil when it is no longer resident)
// reached its terminal state under exactly the lease this request carries.
func (s *Server) duplicateResultLocked(run *Run, req *fleet.ResultRequest) bool {
	if req.LeaseID == "" {
		return false
	}
	if run != nil {
		return run.Terminal && run.doneLease == req.LeaseID
	}
	// Terminal runs are evicted to the history store; doneRings keeps the
	// (run, completing lease) pairs of the latest, so a late retransmission
	// still dedupes. Newest first: a retransmission follows its original by
	// a backoff, not by a thousand runs.
	for i := len(s.doneRings) - 1; i >= 0; i-- {
		if d := s.doneRings[i]; d.run == req.RunID {
			return d.lease == req.LeaseID
		}
	}
	return false
}

// checkLateResultLocked compares the artifacts of a result that arrives
// for a done run — a retransmission, or the upload of an execution whose
// lease lapsed — with the ones applied, read as every reader reads a run
// (viewLocked: resident first, then the history index, since a done run is
// evicted once recorded). A run's bytes depend on its job key alone, which
// is what lets the result cache serve them to other runs, so a successful
// late result must name the same digests. One that does not is counted in
// dyflow_server_result_mismatch_total and logged with both digest sets;
// the upload is then answered as it would be otherwise.
func (s *Server) checkLateResultLocked(workerID string, req *fleet.ResultRequest) {
	if len(req.Artifacts) == 0 || req.Canceled || req.Requeue || req.Error != "" {
		return
	}
	applied, _, ok := s.viewLocked(req.RunID, nil)
	if !ok || RunState(applied.State) != StateDone || maps.Equal(req.Artifacts, applied.Artifacts) {
		return
	}
	s.met.mismatches.Inc()
	s.logf("server: result for %s from worker %s differs from the applied one: artifacts %v, applied %v", req.RunID, workerID, req.Artifacts, applied.Artifacts)
}

// PutBlobs is the upload of the worker that shares this process. It skips
// each blob the store already holds, unread: that worker hashed the bytes
// itself, so only a miss is worth hashing again. It stores each other
// blob under the digest its bytes must hash to and sets Kept when the
// store took its Data over (BlobStore.PutAs). The first refusal ends the
// batch; the blobs before it stay stored.
func (s *Server) PutBlobs(_ context.Context, blobs []fleet.Blob) error {
	for i := range blobs {
		b := &blobs[i]
		if s.blobs.Has(b.Digest) {
			continue
		}
		kept, err := s.blobs.PutAs(b.Digest, b.Data)
		if err != nil {
			return &APIError{Code: http.StatusBadRequest, Msg: err.Error()}
		}
		b.Kept = b.Kept || kept
	}
	return nil
}

// handleBlobsPut stores a batch: a body of frames (fleet/wire.go), each
// read into a buffer that ends exactly its length (putFrame). A body with
// no Content-Length (411) or one over maxBlobBytes (413) is refused before
// a byte is read. A frame whose digest is no content address, one longer
// than what is left of the body, a body that ends short and bytes that do
// not hash to their digest are each a 400; the frames before it stay
// stored.
func (s *Server) handleBlobsPut(w http.ResponseWriter, r *http.Request) {
	if !declaredLength(w, r) {
		return
	}
	head := make([]byte, fleet.FrameHeaderLen)
	for left := r.ContentLength; left > 0; {
		if left < fleet.FrameHeaderLen {
			httpError(w, &APIError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("a blob frame's header is %d bytes, %d are left", fleet.FrameHeaderLen, left)})
			return
		}
		if _, err := io.ReadFull(r.Body, head); err != nil {
			httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "blob body shorter than its Content-Length: " + err.Error()})
			return
		}
		left -= fleet.FrameHeaderLen
		digest, n, ok := fleet.ParseFrameHeader(head)
		switch {
		case !ok:
			httpError(w, &APIError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("blob frame digest %q is not a content address", digest)})
			return
		case n > uint64(left):
			httpError(w, &APIError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("blob frame of %d bytes, %d are left", n, left)})
			return
		}
		if err := s.putFrame(digest, r.Body, int64(n)); err != nil {
			httpError(w, err)
			return
		}
		left -= int64(n)
	}
	w.WriteHeader(http.StatusCreated)
}

// handleBlobPut stores one blob under the digest its path names, the
// upload of a worker that predates the batch: one frame, its header in
// the path and the Content-Length. Every refusal but a wrong digest or a
// short body is decided before a body byte is read: a digest that is not
// a content address (404, as on GET), no Content-Length (411), a length
// over maxBlobBytes (413).
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !fleet.ValidDigest(digest) {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "no such blob"})
		return
	}
	if !declaredLength(w, r) {
		return
	}
	if err := s.putFrame(digest, r.Body, r.ContentLength); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// declaredLength answers 411 for an upload with no Content-Length and 413
// for one over maxBlobBytes, and reports whether it answered neither.
func declaredLength(w http.ResponseWriter, r *http.Request) bool {
	switch {
	case r.ContentLength < 0:
		httpError(w, &APIError{Code: http.StatusLengthRequired, Msg: "a blob upload needs a Content-Length"})
		return false
	case r.ContentLength > maxBlobBytes:
		httpError(w, &APIError{Code: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("a blob is at most %d bytes, this one declares %d", maxBlobBytes, r.ContentLength)})
		return false
	}
	return true
}

// putFrame reads a frame's n bytes from body into a buffer that ends
// exactly there, which the store then keeps as is (readDeclared), and
// stores them under digest. A body that ends short or bytes that do not
// hash to digest are a 400.
func (s *Server) putFrame(digest string, body io.Reader, n int64) error {
	data, err := readDeclared(body, n)
	if err != nil {
		return &APIError{Code: http.StatusBadRequest, Msg: "blob body shorter than its Content-Length: " + err.Error()}
	}
	if _, err := s.blobs.PutAs(digest, data); err != nil {
		return &APIError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	return nil
}

// readDeclared reads n bytes from body into a slice whose capacity is n.
// What it allocates follows the bytes that arrive, not the length a client
// declares: the buffer starts at blobReadStep at most and doubles, capped
// at n, each time it fills, so a client that declares 128 MiB and then
// stalls holds no more than the first step.
func readDeclared(body io.Reader, n int64) ([]byte, error) {
	data := make([]byte, min(n, blobReadStep))
	read := 0
	for {
		m, err := io.ReadFull(body, data[read:])
		read += m
		if err != nil {
			return nil, err
		}
		if int64(read) == n {
			return data, nil
		}
		grown := make([]byte, min(2*int64(read), n))
		copy(grown, data)
		data = grown
	}
}

// handleBlobGet serves a blob. Go's mux routes HEAD here too, which is
// how workers probe before uploading; a HEAD is answered from the store's
// index (Has, and Size for its Content-Length) and reads no bytes, so a
// probe does not fault a blob a previous process wrote into memory. It
// therefore does not check the blob's hash either: a file on disk that no
// longer hashes to its digest answers HEAD 200 and GET 404. Either way a
// digest that is not 64 lowercase hex characters answers 404.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if r.Method == http.MethodHead {
		if !s.blobs.Has(digest) {
			httpError(w, &APIError{Code: http.StatusNotFound, Msg: "no such blob"})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(s.blobs.Size(digest), 10))
		return
	}
	data, ok := s.blobs.Get(digest)
	if !ok {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "no such blob"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) handleFleetView(w http.ResponseWriter, r *http.Request) {
	workers := s.fleet.Workers()
	leases := 0 // counted, like each worker's, from the runs
	s.mu.Lock()
	for _, r := range s.runs {
		if r.LeaseID == "" {
			continue
		}
		leases++
		for i := range workers {
			if workers[i].ID == r.Worker {
				workers[i].Active++
			}
		}
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, fleet.View{
		LeaseTTLMs: s.cfg.LeaseTTL.Milliseconds(),
		Workers:    workers,
		Leases:     leases,
	})
}

// PushMetrics accepts a worker's registry snapshot. The coordinator folds
// the latest snapshot per worker into /metrics (with a worker label) and
// serves them raw on GET /v1/fleet/metrics.
func (s *Server) PushMetrics(_ context.Context, workerID string, snap obs.Snapshot) error {
	if !s.fleet.SetWorkerMetrics(workerID, snap) {
		return &APIError{Code: http.StatusNotFound, Msg: "unknown worker " + workerID}
	}
	return nil
}

func (s *Server) handleWorkerMetrics(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if !decodeBody(w, r, "metrics", &snap) {
		return
	}
	if err := s.PushMetrics(r.Context(), r.PathValue("id"), snap); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFleetMetrics serves each worker's last pushed snapshot plus the
// merged, worker-labeled view.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, fleet.MetricsView{
		Workers: s.fleet.MetricsSnapshots(),
		Merged:  s.mergedSnapshot(),
	})
}
