package server

import (
	"sort"
	"sync/atomic"
	"time"

	"dyflow/internal/exp"
)

// RunState is a run's lifecycle state.
type RunState string

// The run lifecycle: queued → running → done/failed; queued or running
// runs can also be canceled. A crash moves running back to queued on
// restore.
const (
	StateQueued   RunState = "queued"
	StateRunning  RunState = "running"
	StateDone     RunState = "done"
	StateFailed   RunState = "failed"
	StateCanceled RunState = "canceled"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Run is one tracked campaign submission. Mutable fields are guarded by
// the server mutex except the atomics at the end.
type Run struct {
	ID     string
	Tenant string
	Job    exp.Job

	State     RunState
	Cached    bool
	Err       string
	Converged bool
	SimEnd    time.Duration
	// Artifacts maps artifact names to blob digests in the coordinator's
	// content-addressed store — never inline bytes, so cached runs, the
	// history log, and fleet-wide sharing all reference one stored copy.
	Artifacts map[string]string

	// Worker and LeaseID identify the worker holding this run while it
	// executes, and the lease it holds it under — LeaseID is set exactly
	// while the run is running in this process — until expireLeasesLocked
	// sees an instant past leaseExpires, a TTL after the last heartbeat.
	Worker       string
	LeaseID      string
	leaseExpires time.Time
	// doneLease remembers the lease under which the run reached its
	// terminal state. It is the result POST's idempotency check: a worker
	// retransmitting a completion whose 200 was lost matches doneLease and
	// is acknowledged as a duplicate instead of counted stale.
	doneLease string

	SubmittedAt time.Time
	// QueuedAt is when the run last entered the queue — SubmittedAt for
	// the first admission, reset on every requeue (lease expiry, restore,
	// shutdown), so ClaimedAt−QueuedAt is the run's latest queue wait.
	QueuedAt time.Time
	// ClaimedAt is when a worker took the run; zeroed when the run returns
	// to the queue.
	ClaimedAt  time.Time
	StartedAt  time.Time
	FinishedAt time.Time

	simNow       atomic.Int64 // virtual ns, live progress while running
	cancel       atomic.Bool  // cooperative-cancel flag read by the progress hook
	lastProgress atomic.Int64 // wall ns of the last published progress event
}

// Status is the JSON view of a run served by GET /v1/runs/{id}.
type Status struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	Job    exp.Job  `json:"job"`
	State  RunState `json:"state"`
	Cached bool     `json:"cached,omitempty"`
	Error  string   `json:"error,omitempty"`
	// SimSeconds is the run's progress in virtual time: live while
	// running, the final makespan once done.
	SimSeconds float64 `json:"sim_seconds"`
	Converged  bool    `json:"converged,omitempty"`
	// Worker is the worker executing the run (localWorkerID: the one inside
	// the coordinator's process).
	Worker string `json:"worker,omitempty"`

	// Phase timestamps: SubmittedAt is admission; QueuedAt the latest
	// entry into the queue (== SubmittedAt unless the run was requeued);
	// ClaimedAt when a worker took it; StartedAt when execution began;
	// FinishedAt the terminal transition. ClaimedAt−QueuedAt is the queue
	// wait and FinishedAt−StartedAt the execution time that
	// GET /v1/analytics aggregates.
	SubmittedAt time.Time  `json:"submitted_at"`
	QueuedAt    *time.Time `json:"queued_at,omitempty"`
	ClaimedAt   *time.Time `json:"claimed_at,omitempty"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Artifacts lists the fetchable artifact names once the run is done.
	Artifacts []string `json:"artifacts,omitempty"`
}

// status renders the run's JSON view. Caller holds the server mutex.
func (r *Run) status() Status {
	p := r.persisted()
	st := p.status()
	if r.State != StateDone {
		st.SimSeconds = time.Duration(r.simNow.Load()).Seconds()
	}
	return st
}

// status renders a run record's JSON view: the one renderer, for a
// resident run's current state (Run.status) and an evicted run's record.
func (p *persistedRun) status() Status {
	st := Status{
		ID:          p.ID,
		Tenant:      p.Tenant,
		Job:         p.Job,
		State:       p.State,
		Cached:      p.Cached,
		Error:       p.Err,
		SimSeconds:  time.Duration(p.SimEndNs).Seconds(),
		Converged:   p.Converged,
		Worker:      p.Worker,
		SubmittedAt: p.SubmittedAt,
		QueuedAt:    timePtr(p.QueuedAt),
		ClaimedAt:   timePtr(p.ClaimedAt),
		StartedAt:   timePtr(p.StartedAt),
		FinishedAt:  timePtr(p.FinishedAt),
	}
	if len(p.ArtifactRefs) > 0 {
		st.Artifacts = make([]string, 0, len(p.ArtifactRefs))
		for name := range p.ArtifactRefs {
			st.Artifacts = append(st.Artifacts, name)
		}
		sort.Strings(st.Artifacts)
	}
	return st
}

// timePtr renders a phase timestamp for Status: a phase that never
// happened is omitted.
func timePtr(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}
