package fleet

import (
	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/trace"
)

// The worker API wire types, shared by the coordinator's handlers
// (internal/server) and the Worker client below:
//
//	POST /v1/workers/register            RegisterRequest → RegisterResponse
//	POST /v1/workers/{id}/claim          ClaimRequest → ClaimResponse | 204
//	POST /v1/workers/{id}/heartbeat      HeartbeatRequest → HeartbeatResponse
//	POST /v1/workers/{id}/result         ResultRequest → ResultResponse
//	HEAD /v1/blobs/{digest}              200 | 404
//	PUT  /v1/blobs/{digest}              raw bytes, digest-verified
//	GET  /v1/fleet                       coordinator's fleet view

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Name  string `json:"name,omitempty"`
	Slots int    `json:"slots,omitempty"`
}

// RegisterResponse assigns the worker its ID and lease discipline.
type RegisterResponse struct {
	WorkerID    string `json:"worker_id"`
	LeaseTTLMs  int64  `json:"lease_ttl_ms"`
	HeartbeatMs int64  `json:"heartbeat_ms"`
}

// ClaimRequest asks for a queued run, waiting up to WaitMs for one.
type ClaimRequest struct {
	WaitMs int64 `json:"wait_ms,omitempty"`
}

// ClaimResponse hands the worker a leased run. An empty queue is a 204,
// not a ClaimResponse.
type ClaimResponse struct {
	RunID      string  `json:"run_id"`
	Job        exp.Job `json:"job"`
	LeaseID    string  `json:"lease_id"`
	LeaseTTLMs int64   `json:"lease_ttl_ms"`
}

// HeartbeatRequest renews a lease and reports simulated-time progress.
// Spans carries flight-recorder suggestion spans that completed since
// the last heartbeat; the coordinator republishes them into the run's
// live event stream. Forwarding is best-effort and at most once — a lost
// heartbeat loses its batch, never the run.
type HeartbeatRequest struct {
	RunID   string             `json:"run_id"`
	LeaseID string             `json:"lease_id"`
	SimNs   int64              `json:"sim_ns"`
	Spans   []trace.SpanRecord `json:"spans,omitempty"`
}

// HeartbeatResponse tells the worker whether to keep going: a stale lease
// means the run was requeued under it (abandon, no upload); Cancel means
// the run was canceled (abort and report it).
type HeartbeatResponse struct {
	Valid  bool `json:"valid"`
	Cancel bool `json:"cancel,omitempty"`
}

// ResultRequest uploads a run's outcome. Artifacts maps artifact names to
// blob digests the worker has already uploaded via PUT /v1/blobs/{digest}.
//
// LeaseID doubles as the attempt-stable idempotency key: the coordinator
// remembers which lease finished each run, so a retried POST after a
// lost 200 is acknowledged as a duplicate instead of counted stale.
// Requeue hands a still-valid lease back — the run returns to the queue
// (event reason result_upload_failed) instead of finishing; workers send
// it when the run succeeded but its artifacts could not be uploaded.
type ResultRequest struct {
	RunID     string            `json:"run_id"`
	LeaseID   string            `json:"lease_id"`
	Canceled  bool              `json:"canceled,omitempty"`
	Requeue   bool              `json:"requeue,omitempty"`
	Error     string            `json:"error,omitempty"`
	Converged bool              `json:"converged,omitempty"`
	SimEndNs  int64             `json:"sim_end_ns,omitempty"`
	Artifacts map[string]string `json:"artifacts,omitempty"`
	// Spans carries whatever flight-recorder spans had not yet been
	// drained by a heartbeat when the run finished.
	Spans []trace.SpanRecord `json:"spans,omitempty"`
}

// ResultResponse acknowledges an upload. Accepted=false means the lease
// was no longer current and the coordinator ignored the result.
type ResultResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// View is the GET /v1/fleet snapshot.
type View struct {
	LeaseTTLMs int64        `json:"lease_ttl_ms"`
	Workers    []WorkerInfo `json:"workers"`
	Leases     int          `json:"leases"`
}

// MetricsView is the GET /v1/fleet/metrics snapshot: each registered
// worker's last pushed registry snapshot, plus the merged view the
// coordinator folds into /metrics (worker-labeled).
type MetricsView struct {
	Workers map[string]obs.Snapshot `json:"workers"`
	Merged  obs.Snapshot            `json:"merged"`
}
