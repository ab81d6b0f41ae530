package server

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// The coordinator side of the fleet worker API (docs/SERVICE.md, "The
// worker fleet"). Wire types live in internal/server/fleet so the Worker
// client and these handlers cannot drift apart.
//
//	POST /v1/workers/register           join the fleet
//	POST /v1/workers/{id}/claim         lease one queued run (204 = empty)
//	POST /v1/workers/{id}/heartbeat     renew a lease, learn of cancellation
//	POST /v1/workers/{id}/result        upload an outcome (lease-gated)
//	PUT  /v1/blobs/{digest}             upload one artifact blob
//	GET  /v1/blobs/{digest}             fetch a blob (HEAD probes existence)
//	GET  /v1/fleet                      workers + leases view

// maxBlobBytes bounds one artifact upload.
const maxBlobBytes = 128 << 20

// fleetRoutes mounts the worker API on the coordinator's mux. route is
// Handler's counting registrar.
func (s *Server) fleetRoutes(route func(pattern, name string, h http.HandlerFunc)) {
	route("POST /v1/workers/register", "worker_register", s.handleRegister)
	route("POST /v1/workers/{id}/claim", "worker_claim", s.handleClaim)
	route("POST /v1/workers/{id}/heartbeat", "worker_heartbeat", s.handleHeartbeat)
	route("POST /v1/workers/{id}/result", "worker_result", s.handleResult)
	route("POST /v1/workers/{id}/metrics", "worker_metrics", s.handleWorkerMetrics)
	route("PUT /v1/blobs/{digest}", "blob_put", s.handleBlobPut)
	route("GET /v1/blobs/{digest}", "blob_get", s.handleBlobGet)
	route("GET /v1/fleet", "fleet", s.handleFleetView)
	route("GET /v1/fleet/metrics", "fleet_metrics", s.handleFleetMetrics)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad register body: " + err.Error()})
		return
	}
	id := s.fleet.Register(req.Name, req.Slots)
	ttl := s.fleet.TTL()
	s.writeJSON(w, http.StatusOK, fleet.RegisterResponse{
		WorkerID:    id,
		LeaseTTLMs:  ttl.Milliseconds(),
		HeartbeatMs: (ttl / 3).Milliseconds(),
	})
}

// handleClaim hands the worker one queued run under a fresh lease,
// long-polling up to the requested wait when the queue is empty.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var req fleet.ClaimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad claim body: " + err.Error()})
		return
	}
	s.fleet.Touch(workerID) // an empty-queue poll still proves liveness
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		if id, ok := s.queue.tryPopAny(); ok {
			if resp, ok := s.leaseRun(workerID, id); ok {
				s.writeJSON(w, http.StatusOK, resp)
				return
			}
			continue // that run finished at claim time (canceled/cached); try the next
		}
		if s.isStopping() {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		// Block on whichever comes first: the next poll tick, the long-poll
		// window closing, the client disconnecting (a partitioned or killed
		// worker must not pin a handler goroutine for the full window), or
		// shutdown.
		select {
		case <-poll.C:
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			w.WriteHeader(http.StatusNoContent)
			return
		case <-s.stopped:
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// leaseRun moves one popped run to running under a lease for workerID.
// ok=false means the run was consumed without needing a worker (canceled
// while queued, or completable from the result cache) — claim again.
func (s *Server) leaseRun(workerID, id string) (fleet.ClaimResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs[id]
	if r == nil || r.State != StateQueued {
		return fleet.ClaimResponse{}, false
	}
	if r.cancel.Load() {
		s.finishLocked(r, StateCanceled, errRunCanceled)
		return fleet.ClaimResponse{}, false
	}
	if s.finishFromCacheLocked(r) {
		return fleet.ClaimResponse{}, false
	}
	leaseID, err := s.fleet.Grant(workerID, id)
	if err != nil {
		// Unknown worker: put the run back for someone legitimate.
		s.queue.requeue(r.Shard, id)
		return fleet.ClaimResponse{}, false
	}
	r.State = StateRunning
	r.ClaimedAt = time.Now()
	r.StartedAt = r.ClaimedAt
	r.Worker = workerID
	r.LeaseID = leaseID
	s.historyAppendLocked(r)
	s.events.Append(id, events.Event{Type: events.TypeClaimed, Worker: workerID})
	s.events.Append(id, events.Event{Type: events.TypeRunning, Worker: workerID})
	return fleet.ClaimResponse{
		RunID:      id,
		Job:        r.Job,
		LeaseID:    leaseID,
		LeaseTTLMs: s.fleet.TTL().Milliseconds(),
	}, true
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var req fleet.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad heartbeat body: " + err.Error()})
		return
	}
	resp := fleet.HeartbeatResponse{Valid: s.fleet.Heartbeat(workerID, req.RunID, req.LeaseID)}
	if resp.Valid {
		s.mu.Lock()
		if run := s.runs[req.RunID]; run != nil {
			run.simNow.Store(req.SimNs)
			resp.Cancel = run.cancel.Load()
			s.progressEvent(run, workerID, req.SimNs)
		}
		cancelAll := s.stopping
		s.mu.Unlock()
		s.appendWorkerSpans(req.RunID, workerID, req.Spans)
		if cancelAll {
			resp.Cancel = true
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleResult applies a worker's outcome — if and only if the worker
// still holds the run's live lease. A lapsed, revoked, or superseded
// lease means the coordinator already requeued (or canceled) the run;
// the upload is counted stale and ignored, which is what makes
// completion at-most-once *observable* even though a run may execute
// more than once.
//
// The lease ID doubles as the result's idempotency key: when a worker
// retransmits a completion whose 200 was lost in flight, the run is
// already terminal under that very lease — the retry is acknowledged
// Accepted (Reason "duplicate") and counted in
// dyflow_server_fleet_duplicate_results_total instead of stale.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var req fleet.ResultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad result body: " + err.Error()})
		return
	}
	if s.isDuplicateResult(&req) {
		s.met.dupResults.Inc()
		s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Accepted: true, Reason: "duplicate"})
		return
	}
	if !s.fleet.Release(workerID, req.RunID, req.LeaseID) {
		s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Reason: "lease not current; result ignored"})
		return
	}

	s.appendWorkerSpans(req.RunID, workerID, req.Spans)

	s.mu.Lock()
	defer s.mu.Unlock()
	run := s.runs[req.RunID]
	if run == nil || run.State != StateRunning || run.Worker != workerID {
		s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Reason: "run not executing under this worker"})
		return
	}
	switch {
	case req.Requeue:
		// The worker executed the run but could not deliver its artifacts
		// (degraded blob plane): it hands the still-valid lease back and
		// the run returns to the queue rather than failing.
		s.logf("server: worker %s requeued %s: %s", workerID, req.RunID, req.Error)
		s.resetToQueuedLocked(run, "result_upload_failed")
		s.queue.requeue(run.Shard, run.ID)
		s.fleet.NoteOutcome(workerID, "requeued")
		s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Accepted: true, Reason: "requeued"})
		return
	case req.Canceled:
		run.doneLease = req.LeaseID
		s.finishLocked(run, StateCanceled, errRunCanceled)
		s.fleet.NoteOutcome(workerID, "canceled")
	case req.Error != "":
		run.doneLease = req.LeaseID
		s.finishLocked(run, StateFailed, errRemote(req.Error))
		s.fleet.NoteOutcome(workerID, "failed")
	default:
		// Every referenced blob must already be in the store; otherwise
		// the "done" run would 404 its artifacts, so requeue instead.
		for name, digest := range req.Artifacts {
			if !s.blobs.Has(digest) {
				s.logf("server: result for %s references missing blob %s (%s); requeued", req.RunID, digest[:12], name)
				s.resetToQueuedLocked(run, "missing_blob")
				s.queue.requeue(run.Shard, run.ID)
				s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Reason: "artifact blob missing; run requeued"})
				return
			}
		}
		run.Converged = req.Converged
		run.SimEnd = time.Duration(req.SimEndNs)
		run.simNow.Store(req.SimEndNs)
		run.Artifacts = req.Artifacts
		if _, have := s.cache[run.Job.Key()]; !have {
			s.cache[run.Job.Key()] = cacheEntryFor(run)
		}
		if !run.StartedAt.IsZero() {
			s.met.runSeconds.Observe(time.Since(run.StartedAt).Seconds())
		}
		run.doneLease = req.LeaseID
		s.finishLocked(run, StateDone, nil)
		s.fleet.NoteOutcome(workerID, "done")
	}
	s.writeJSON(w, http.StatusOK, fleet.ResultResponse{Accepted: true})
}

// isDuplicateResult reports whether this upload is a retransmission of a
// result already applied: the run reached its terminal state under
// exactly the lease this request carries.
func (s *Server) isDuplicateResult(req *fleet.ResultRequest) bool {
	if req.LeaseID == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	run := s.runs[req.RunID]
	if run != nil {
		return run.State.Terminal() && run.doneLease == req.LeaseID
	}
	// Terminal runs are evicted to the history store; recentDone keeps the
	// (run, completing lease) pairs so a late retransmission still dedupes.
	return s.recentDone[req.RunID] == req.LeaseID
}

func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		httpError(w, &APIError{Code: http.StatusRequestEntityTooLarge, Msg: err.Error()})
		return
	}
	if err := s.blobs.PutAs(digest, data); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: err.Error()})
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// handleBlobGet serves a blob; Go's mux and server make the same handler
// answer HEAD with headers only, which is how workers probe before
// uploading.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	data, ok := s.blobs.Get(r.PathValue("digest"))
	if !ok {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "no such blob"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (s *Server) handleFleetView(w http.ResponseWriter, r *http.Request) {
	workers := s.fleet.Workers()
	s.writeJSON(w, http.StatusOK, fleet.View{
		LeaseTTLMs: s.fleet.TTL().Milliseconds(),
		Workers:    workers,
		Leases:     len(s.fleet.LeasedRuns()),
	})
}

// handleWorkerMetrics accepts a worker's pushed registry snapshot. The
// coordinator folds the latest snapshot per worker into /metrics (with a
// worker label) and serves them raw on GET /v1/fleet/metrics.
func (s *Server) handleWorkerMetrics(w http.ResponseWriter, r *http.Request) {
	workerID := r.PathValue("id")
	var snap obs.Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad metrics body: " + err.Error()})
		return
	}
	if !s.fleet.SetWorkerMetrics(workerID, snap) {
		httpError(w, &APIError{Code: http.StatusNotFound, Msg: "unknown worker " + workerID})
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

// errRemote wraps a worker-reported failure string as an error.
type errRemote string

func (e errRemote) Error() string { return string(e) }
