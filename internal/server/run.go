package server

import (
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/runstore"
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

// Run is one resident campaign submission: its record, the runstore.Meta
// its latest history append wrote, and what the index cannot hold — its
// lease and live progress. A resident run's Meta is its current state: the
// lifecycle (lifecycle.go) writes it and appends it in one critical
// section, and a failed append leaves the run resident, so a reader never
// needs another copy. Mutable fields are guarded by the server mutex
// except the atomics at the end.
type Run struct {
	runstore.Meta

	// LeaseID identifies the lease the run's Worker holds it under — set
	// exactly while the run is running in this process — until
	// expireLeasesLocked sees an instant past leaseExpires, a TTL after
	// the last heartbeat.
	LeaseID      string
	leaseExpires time.Time
	// doneLease remembers the lease under which the run reached its
	// terminal state. It is the result POST's idempotency check: a worker
	// retransmitting a completion whose 200 was lost matches doneLease and
	// is acknowledged as a duplicate instead of counted stale.
	doneLease string

	simNow       atomic.Int64 // virtual ns, live progress while running
	cancel       atomic.Bool  // cooperative-cancel flag read by the progress hook
	lastProgress atomic.Int64 // wall ns of the last published progress event
}

// state is the run's lifecycle state.
func (r *Run) state() RunState { return RunState(r.State) }

// job is the job the run executes.
func (r *Run) job() exp.Job { return metaJob(&r.Meta) }

// metaJob is the job a run record describes.
func metaJob(m *runstore.Meta) exp.Job {
	return exp.Job{Scenario: m.Scenario, Machine: m.Machine, Seed: m.Seed, XML: m.XML}
}

// progressNs is the virtual time r's status shows: live while it is not
// done, its makespan once it is.
func (r *Run) progressNs() int64 {
	if r.state() == StateDone {
		return r.SimEndNs
	}
	return r.simNow.Load()
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
func (r *Run) status() Status { return recordStatus(&r.Meta, r.progressNs()) }

// recordStatus renders a run record's JSON view, showing simNs of virtual
// progress: the one renderer.
func recordStatus(m *runstore.Meta, simNs int64) Status {
	st := Status{
		ID:          m.ID,
		Tenant:      m.Tenant,
		Job:         metaJob(m),
		State:       RunState(m.State),
		Cached:      m.Cached,
		Error:       m.Error,
		SimSeconds:  time.Duration(simNs).Seconds(),
		Converged:   m.Converged,
		Worker:      m.Worker,
		SubmittedAt: nsTime(m.SubmittedAtNs),
		QueuedAt:    timePtr(m.QueuedAtNs),
		ClaimedAt:   timePtr(m.ClaimedAtNs),
		StartedAt:   timePtr(m.StartedAtNs),
		FinishedAt:  timePtr(m.FinishedAtNs),
	}
	if len(m.Artifacts) > 0 {
		st.Artifacts = make([]string, 0, len(m.Artifacts))
		for name := range m.Artifacts {
			st.Artifacts = append(st.Artifacts, name)
		}
		sort.Strings(st.Artifacts)
	}
	return st
}

// appendStatus appends the JSON encoding of recordStatus(m, simNs) to dst:
// byte for byte what encoding/json writes for that Status, without
// building it.
func appendStatus(dst []byte, m *runstore.Meta, simNs int64) []byte {
	dst = append(dst, `{"id":`...)
	dst = obs.AppendString(dst, m.ID)
	dst = append(dst, `,"tenant":`...)
	dst = obs.AppendString(dst, m.Tenant)
	dst = append(dst, `,"job":{"scenario":`...)
	dst = obs.AppendString(dst, m.Scenario)
	if m.Machine != "" {
		dst = append(dst, `,"machine":`...)
		dst = obs.AppendString(dst, m.Machine)
	}
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendInt(dst, m.Seed, 10)
	if m.XML != "" {
		dst = append(dst, `,"xml":`...)
		dst = obs.AppendString(dst, m.XML)
	}
	dst = append(dst, `},"state":`...)
	dst = obs.AppendString(dst, m.State)
	if m.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if m.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = obs.AppendString(dst, m.Error)
	}
	dst = append(dst, `,"sim_seconds":`...)
	dst, _ = obs.AppendFloat(dst, time.Duration(simNs).Seconds()) // always finite
	if m.Converged {
		dst = append(dst, `,"converged":true`...)
	}
	if m.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = obs.AppendString(dst, m.Worker)
	}
	dst = append(dst, `,"submitted_at":"`...)
	dst = nsTime(m.SubmittedAtNs).AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	for _, ph := range [...]struct {
		field string
		ns    int64
	}{
		{`,"queued_at":"`, m.QueuedAtNs},
		{`,"claimed_at":"`, m.ClaimedAtNs},
		{`,"started_at":"`, m.StartedAtNs},
		{`,"finished_at":"`, m.FinishedAtNs},
	} {
		if ph.ns != 0 {
			dst = append(dst, ph.field...)
			dst = time.Unix(0, ph.ns).AppendFormat(dst, time.RFC3339Nano)
			dst = append(dst, '"')
		}
	}
	if len(m.Artifacts) > 0 {
		var stack [8]string
		names := stack[:0]
		for name := range m.Artifacts {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, `,"artifacts":[`...)
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = obs.AppendString(dst, name)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// timePtr renders a phase timestamp for Status: a phase that never
// happened (0) is omitted.
func timePtr(ns int64) *time.Time {
	if ns == 0 {
		return nil
	}
	t := time.Unix(0, ns)
	return &t
}
