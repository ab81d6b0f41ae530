package server

import (
	"fmt"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// The run lifecycle (DESIGN.md §13). A run changes state only along an edge
// of the table below, and only through leaseRun, resetToQueuedLocked and
// finishLocked, which look the edge up first. They are also the only
// writers of a run's phase timestamps, of its lease (Worker, LeaseID,
// leaseExpires, doneLease; a heartbeat renews it, renewLeaseLocked), of its
// tenant's in-flight count and of dyflow_server_active_runs: who holds a
// run is answered in one place, under s.mu.

// stateNew is the state of a run that has none yet: between newRunLocked
// and the edge that admits it, inside one critical section.
const stateNew RunState = ""

// edge is one legal transition. A cause that puts a run back in the queue is
// also the reason its queued event carries.
type edge struct {
	from, to RunState
	cause    string
}

// lifecycle is every legal edge. DESIGN.md §13 carries the same table with
// where each is taken; TestLifecycleTableIsDocumented keeps the two equal.
var lifecycle = map[edge]bool{
	{stateNew, StateQueued, "submit"}:       true,
	{stateNew, StateDone, "cache_hit"}:      true, // an identical job had finished: never queued
	{StateQueued, StateDone, "cache_hit"}:   true, // one finished while this run waited
	{StateQueued, StateRunning, "claim"}:    true,
	{StateQueued, StateCanceled, "cancel"}:  true,
	{StateRunning, StateDone, "result"}:     true,
	{StateRunning, StateFailed, "result"}:   true,
	{StateRunning, StateCanceled, "result"}: true,

	{StateRunning, StateQueued, "lease_expired"}:        true,
	{StateRunning, StateCanceled, "lease_expired"}:      true, // the worker died before it saw the cancel
	{StateRunning, StateQueued, "missing_blob"}:         true,
	{StateRunning, StateQueued, "result_upload_failed"}: true,
	{StateRunning, StateQueued, "shutdown"}:             true,

	{StateQueued, StateQueued, "restore"}:        true,
	{StateRunning, StateQueued, "restore"}:       true,
	{StateDone, StateQueued, "restore"}:          true, // recorded done, artifacts gone: demoted
	{StateQueued, StateFailed, "document_lost"}:  true, // errJobDocumentLost, whatever the record said
	{StateRunning, StateFailed, "document_lost"}: true,
	{StateDone, StateFailed, "document_lost"}:    true,
}

// legalLocked is the table check every transition starts with: an edge that
// is not there is refused, logged and counted.
func (s *Server) legalLocked(r *Run, to RunState, cause string) error {
	if lifecycle[edge{r.State, to, cause}] {
		return nil
	}
	s.met.illegal.With(string(r.State), string(to)).Inc()
	err := fmt.Errorf("server: illegal transition of %s: %q → %q (%s)", r.ID, r.State, to, cause)
	s.logf("%v; refused", err)
	return err
}

// progressEventEvery throttles TypeProgress events per run, and is how
// often the in-process worker heartbeats (Register): often enough to watch
// a run live, far rarer than its world's progress hook, which fires every
// simulated second — microseconds of wall time.
const progressEventEvery = 10 * time.Millisecond

// newRunLocked allocates and registers the next run, in no state yet: the
// caller takes it along an edge out of stateNew or drops it. Caller holds
// the server mutex.
func (s *Server) newRunLocked(tenant string, job exp.Job) *Run {
	id := fmt.Sprintf("run-%06d", s.nextID)
	s.nextID++
	r := &Run{
		ID:          id,
		Tenant:      tenant,
		Job:         job,
		SubmittedAt: time.Now(),
	}
	s.admitLocked(r)
	return r
}

// admitLocked makes r resident and counts it against its tenant's quota
// until finishLocked — or dropRunLocked — takes it off again.
func (s *Server) admitLocked(r *Run) {
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	s.inflight[r.Tenant]++
}

// dropRunLocked unregisters a run that failed admission and returns err.
func (s *Server) dropRunLocked(r *Run, err error) error {
	delete(s.runs, r.ID)
	if n := len(s.order); n > 0 && s.order[n-1] == r.ID {
		s.order = s.order[:n-1]
	}
	s.nextID--
	s.releaseQuotaLocked(r)
	return err
}

// releaseQuotaLocked is admitLocked's count coming down again.
func (s *Server) releaseQuotaLocked(r *Run) {
	s.inflight[r.Tenant]--
	if s.inflight[r.Tenant] <= 0 {
		delete(s.inflight, r.Tenant)
	}
}

// leaseRun moves one popped run to running under a lease for workerID.
// ok=false means the run was consumed without needing a worker (canceled
// while queued, or completable from the result cache) — claim again.
func (s *Server) leaseRun(workerID, id string) (claim fleet.ClaimResponse, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs[id]
	if r == nil {
		return claim, false, nil
	}
	if r.cancel.Load() {
		// Canceled after the queue pop but before the lease.
		return claim, false, s.finishLocked(r, StateCanceled, "cancel", "")
	}
	if hit, err := s.finishFromCacheLocked(r); hit || err != nil {
		// An identical run completed while this one sat queued (or it was
		// requeued with orphaned artifacts) — answered from the cache.
		return claim, false, err
	}
	if err := s.legalLocked(r, StateRunning, "claim"); err != nil {
		return claim, false, err
	}
	r.State = StateRunning
	r.ClaimedAt = time.Now()
	r.StartedAt = r.ClaimedAt
	r.Worker = workerID
	r.LeaseID = fmt.Sprintf("lease-%06d", s.nextLease)
	s.nextLease++
	r.leaseExpires = r.ClaimedAt.Add(s.cfg.LeaseTTL)
	s.met.active.Add(1)
	s.met.fleetClaims.Inc()
	s.fleet.NoteOutcome(workerID, "claimed")
	s.historyAppendLocked(r)
	s.events.Append(id, events.Event{Type: events.TypeClaimed, Worker: workerID})
	s.events.Append(id, events.Event{Type: events.TypeRunning, Worker: workerID})
	return fleet.ClaimResponse{
		RunID:      id,
		Job:        r.Job,
		LeaseID:    r.LeaseID,
		LeaseTTLMs: s.cfg.LeaseTTL.Milliseconds(),
	}, true, nil
}

// leasedTo reports whether workerID holds r (nil: no) under leaseID: the one
// lease check. Only its holder renews a lease and only its holder's result
// ends the run, which makes completion at-most-once observable.
func (r *Run) leasedTo(workerID, leaseID string) bool {
	return r != nil && r.LeaseID != "" && r.LeaseID == leaseID && r.Worker == workerID
}

// renewLeaseLocked is a heartbeat: the lease lasts another TTL from now.
func (s *Server) renewLeaseLocked(r *Run) {
	r.leaseExpires = time.Now().Add(s.cfg.LeaseTTL)
}

// unleaseLocked ends r's execution, if it has one in this process: the one
// place dyflow_server_active_runs comes down (leaseRun is where it goes
// up). A run restored as running has no lease and was never counted.
func (s *Server) unleaseLocked(r *Run) {
	if r.LeaseID != "" {
		r.LeaseID = ""
		r.leaseExpires = time.Time{}
		s.met.active.Add(-1)
	}
}

// resetToQueuedLocked takes a run to the queued state — its admission, or
// a requeue after a lease expiry, a missing artifact blob, a hand-back, a
// restore, or shutdown — resetting its claim-phase fields and whatever
// result a demoted run carried, and publishing the queued event with the
// reason. The caller pushes to the queue (or not: shutdown leaves
// requeueing to the next process). Caller holds the server mutex.
func (s *Server) resetToQueuedLocked(r *Run, cause string) error {
	if err := s.legalLocked(r, StateQueued, cause); err != nil {
		return err
	}
	from := r.State
	ev := events.Event{Type: events.TypeQueued, Reason: cause}
	r.State = StateQueued
	r.QueuedAt = time.Now()
	if from == stateNew {
		// First admission: the run enters the queue as it is submitted.
		r.QueuedAt, ev.Reason = r.SubmittedAt, ""
	}
	r.ClaimedAt = time.Time{}
	r.StartedAt = time.Time{}
	r.FinishedAt = time.Time{}
	r.Worker = ""
	s.unleaseLocked(r)
	r.clearResult()
	r.simNow.Store(0)
	if err := s.historyAppendLocked(r); err != nil && from == stateNew {
		return err // not admitted: nothing is published, and Submit drops the run
	}
	s.events.Append(r.ID, ev)
	return nil
}

// clearResult forgets what a finished execution reported.
func (r *Run) clearResult() {
	r.Cached, r.Converged, r.SimEnd, r.Artifacts = false, false, 0, nil
}

// finishLocked moves a run to a terminal state — failed with failure as its
// error — releasing its quota slot and lease and recording the transition;
// first are published between the record and the terminal event. Caller
// holds the server mutex.
func (s *Server) finishLocked(r *Run, state RunState, cause, failure string, first ...events.Event) error {
	if err := s.legalLocked(r, state, cause); err != nil {
		return err
	}
	from := r.State
	r.State = state
	if state == StateFailed {
		r.Err = failure
	}
	if state != StateDone {
		r.clearResult()
	}
	r.FinishedAt = time.Now()
	if cause == "result" {
		// The result POST's idempotency key: a retransmission names it.
		r.doneLease = r.LeaseID
	}
	s.unleaseLocked(r)
	// Record first, publish second: a delivered terminal event is always a
	// durable one. A failed append is not fatal to the run — on restart it
	// re-executes, which is deterministic — but it IS durability loss
	// (logged and counted), and the run stays resident, still servable.
	appendErr := s.historyAppendLocked(r)
	if appendErr != nil && from == stateNew {
		return appendErr // not admitted: nothing is published, and Submit drops the run
	}
	s.releaseQuotaLocked(r)
	s.met.runsTotal.With(string(state)).Inc()
	for _, ev := range first {
		s.events.Append(r.ID, ev)
	}
	ev := events.Event{Type: terminalEventType(state), Worker: r.Worker,
		Cached: r.Cached, Converged: r.Converged, Error: r.Err}
	if state == StateDone {
		ev.SimSeconds = r.SimEnd.Seconds()
	}
	s.events.Append(r.ID, ev)
	// Release the resident entry — the run stays fully queryable (status,
	// artifacts, analytics, result dedup) through the store's indexes.
	if appendErr == nil {
		s.evictTerminalLocked(r)
	}
	return nil
}

// terminalEventType maps a terminal run state to its event type.
func terminalEventType(state RunState) events.Type {
	switch state {
	case StateFailed:
		return events.TypeFailed
	case StateCanceled:
		return events.TypeCanceled
	default:
		return events.TypeDone
	}
}

// finishFromCacheLocked completes a run from the result cache when an
// identical job has finished: at submission, or at claim time when it
// finished after this run was admitted. Reports whether it did. Caller
// holds the server mutex.
func (s *Server) finishFromCacheLocked(r *Run) (hit bool, err error) {
	src, ok := s.cache[r.Job.Key()]
	if !ok || src.RunID == r.ID {
		return false, nil
	}
	if err := s.legalLocked(r, StateDone, "cache_hit"); err != nil {
		return true, err // before the result is copied in: a refusal changes nothing
	}
	r.Cached = true
	r.Converged = src.Converged
	r.SimEnd = src.SimEnd
	r.simNow.Store(int64(src.SimEnd))
	r.Artifacts = src.Artifacts
	if err := s.finishLocked(r, StateDone, "cache_hit", "",
		events.Event{Type: events.TypeCacheHit, Reason: src.RunID}); err != nil {
		return true, err
	}
	s.met.cacheHits.With(r.Tenant).Inc()
	return true, nil
}

// expireLeasesLocked ends every lease that now is past: the worker holding
// the run died or stalled, so the run goes back to the queue for exact
// re-execution. It is the only place a lease lapses — Heartbeat and Result
// compare no clock — so a lease is good until this says otherwise. Newest
// run first: each goes back in at the front, so the oldest is claimed first
// (and finishLocked may cut s.order at i). Caller holds the server mutex.
func (s *Server) expireLeasesLocked(now time.Time) {
	for i := len(s.order) - 1; i >= 0; i-- {
		r := s.runs[s.order[i]]
		if r.LeaseID == "" || !now.After(r.leaseExpires) {
			continue
		}
		s.met.leaseExpiries.Inc()
		if r.cancel.Load() {
			// The worker died before observing the cancel; finish it here.
			s.finishLocked(r, StateCanceled, "lease_expired", "")
			continue
		}
		s.logf("server: lease on %s lapsed at %s; requeued", r.ID, r.Worker)
		s.events.Append(r.ID, events.Event{Type: events.TypeLeaseExpired, Worker: r.Worker})
		if s.resetToQueuedLocked(r, "lease_expired") == nil {
			s.queue.requeue(r.ID)
		}
	}
}

// progressEvent publishes a throttled TypeProgress event for a running
// run, from its worker's heartbeat.
func (s *Server) progressEvent(r *Run, worker string, simNs int64) {
	now := time.Now().UnixNano()
	last := r.lastProgress.Load()
	if now-last < int64(progressEventEvery) || !r.lastProgress.CompareAndSwap(last, now) {
		return
	}
	s.events.Append(r.ID, events.Event{
		Type:       events.TypeProgress,
		Worker:     worker,
		SimSeconds: time.Duration(simNs).Seconds(),
	})
}
