package fleet

import (
	"encoding/binary"

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
//	PUT  /v1/blobs/                      a run's blobs as frames → 201
//	HEAD /v1/blobs/{digest}              200 | 404 (older workers)
//	PUT  /v1/blobs/{digest}              raw bytes → 201 (older workers)
//	GET  /v1/fleet                       coordinator's fleet view
//
// A worker sends all of a run's artifacts in one PUT /v1/blobs/, whose
// body is one frame per blob: the blob's digest as 64 hex characters, its
// length as 8 bytes big-endian, then its bytes. The coordinator verifies
// each frame's bytes against its digest as it stores them; a repeat of a
// stored blob is a dedup, so a batch whose reply was lost is sent again
// whole. HEAD and the per-digest PUT are what workers before the batch
// sent, one pair per artifact, and are still answered.

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
// blob digests the worker has already uploaded via PUT /v1/blobs/.
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

// Blob is one artifact of a batch upload (Coordinator.PutBlobs).
type Blob struct {
	Name   string // the artifact's name; not sent
	Digest string
	Data   []byte
	// Kept is set when the coordinator took Data itself over.
	Kept bool
}

// FrameHeaderLen is the length of a blob frame's header: the digest's
// 64 hex characters and the 8-byte length.
const FrameHeaderLen = 64 + 8

// AppendFrameHeader appends the header of a frame that carries n bytes
// under digest.
func AppendFrameHeader(b []byte, digest string, n int) []byte {
	return binary.BigEndian.AppendUint64(append(b, digest...), uint64(n))
}

// ParseFrameHeader splits a frame header into its digest and length; ok
// is false when the digest is not a content address (ValidDigest).
func ParseFrameHeader(h []byte) (digest string, n uint64, ok bool) {
	digest = string(h[:64])
	return digest, binary.BigEndian.Uint64(h[64:FrameHeaderLen]), ValidDigest(digest)
}
