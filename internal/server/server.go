// Package server is the multi-tenant campaign service: it accepts workflow
// submissions (scenario + optional XML orchestration document + seed +
// machine) over HTTP, admits them through per-tenant quotas and a bounded
// queue, leases each to a worker — one deterministic DES world per
// worker slot, the worker in this process or on the network — and serves
// the finished artifacts. Because runs are byte-deterministic in the job
// value, results are cached by job key and re-submissions are answered
// without re-simulating; because every acknowledged transition is appended
// to internal/runstore first, a killed server restarts with no acknowledged
// submission lost. docs/SERVICE.md is the narrative description.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/runstore"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// progressEventEvery throttles TypeProgress events per run, and is how
// often the in-process worker heartbeats (Register): often enough to watch
// a run live, far rarer than its world's progress hook, which fires every
// simulated second — microseconds of wall time.
const progressEventEvery = 10 * time.Millisecond

// errRunCanceled is what a canceled run is finished with.
var errRunCanceled = errors.New("server: run canceled")

// Config sizes the service.
type Config struct {
	// Workers is the slot count (one concurrent simulation each) of the
	// worker the coordinator runs in its own process. 0 means GOMAXPROCS;
	// negative means no such worker — submissions queue until a worker
	// joins over the network (tests also use this to observe queue states
	// deterministically).
	Workers int
	// QueueDepth bounds the queued-run count;
	// submissions beyond it get 429 backpressure. 0 means 64.
	QueueDepth int
	// TenantQuota caps one tenant's in-flight (queued + running) runs;
	// submissions beyond it get 429. 0 means 8; negative means unlimited.
	TenantQuota int
	// CkptDir, when set, persists every run's state in the run-history
	// store's segments under CkptDir/runs (artifact blobs under
	// CkptDir/blobs), surviving kill -9.
	CkptDir string
	// LeaseTTL is how long a fleet worker's claim on a run stays valid
	// without a heartbeat before the coordinator requeues the run.
	// 0 means 10s.
	LeaseTTL time.Duration
	// EventBuffer bounds each run's event journal ring (the SSE stream's
	// replay window). 0 means events.DefaultBuffer (256). A slow stream
	// consumer misses overwritten events — counted, never blocking the
	// run.
	EventBuffer int
	// Logger receives operational messages — history append failures,
	// HTTP serve errors. Nil means a stderr logger.
	Logger *log.Logger
	// Metrics receives the dyflow_server_* families. Nil means a private
	// registry (reachable via Registry()).
	Metrics *obs.Registry
	// RunstoreSegmentBytes is the run-history store's segment rotation
	// threshold (0 = runstore.DefaultSegmentBytes).
	RunstoreSegmentBytes int64
	// RetentionMaxAge deletes terminal runs from the history store once
	// their FinishedAt is older than this (0 = keep forever).
	RetentionMaxAge time.Duration
	// RetentionMaxBytes bounds one tenant's total artifact bytes in the
	// history store; oldest-finished terminal runs are deleted until the
	// tenant fits (0 = unlimited).
	RetentionMaxBytes int64
	// RetentionInterval is the background retention sweep cadence when a
	// policy is set (0 = 1 minute).
	RetentionInterval time.Duration
}

// Server is the campaign service's coordinator: admission, quotas, the
// deterministic result cache, the run-history log, the content-addressed
// blob store, and the fleet lease manager. It executes nothing itself: a
// run is leased to a fleet.Worker through the worker API (worker_api.go),
// whether that worker joined over HTTP or is the one New starts in this
// process (cfg.Workers slots, calling the same API as plain methods).
type Server struct {
	cfg    Config
	reg    *obs.Registry
	met    *metrics
	queue  *runQueue
	blobs  *fleet.BlobStore
	fleet  *fleet.Manager
	events *events.Journal
	logger *log.Logger

	// history is the durable, indexed run store (internal/runstore) and
	// the only record of run state: every transition is appended before
	// it is acknowledged or published, terminal runs are evicted from the
	// resident map once recorded, every read of an evicted run goes
	// through storedRun, and restore reads nothing else. Memory-only when
	// persistence is off (same API). Lock
	// order: s.mu may be held while calling into history, never the
	// reverse (EachMeta callbacks must not touch s.mu).
	history *runstore.Store

	// stopped closes when shutdown begins, waking SSE streams so they
	// end instead of pinning http.Server.Shutdown to its deadline.
	stopped chan struct{}

	mu       sync.Mutex
	runs     map[string]*Run // resident runs: non-terminal + terminal not yet in history
	order    []string        // resident run IDs in submission order
	nextID   int
	cache    map[string]cacheEntry // job key → first completed run's result
	inflight map[string]int        // tenant → queued+running runs
	stopping bool
	// doneRings lists the evicted terminal runs the coordinator still holds
	// something of besides their record (FIFO, the last maxTerminalRings):
	// their SSE event ring — once it drops, a reconnecting client gets a
	// terminal event synthesized from history instead — and the lease each
	// finished under, so a worker retransmitting a result after its run
	// left the resident map still deduplicates.
	doneRings []doneRing

	// local is the worker sharing this process (nil when cfg.Workers < 0).
	local *fleet.Worker

	retWg   sync.WaitGroup // background retention sweeper
	httpSrv *http.Server
	ln      net.Listener
}

// New builds the service, restores any persisted state from cfg.CkptDir,
// and starts the in-process worker.
func New(cfg Config) (*Server, error) {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 8
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(os.Stderr, "dyflow-serve: ", log.LstdFlags)
	}
	met := newMetrics(reg)
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		met:      met,
		logger:   logger,
		queue:    newRunQueue(cfg.QueueDepth, met.queueDepth),
		events:   events.NewJournal(cfg.EventBuffer, reg),
		stopped:  make(chan struct{}),
		runs:     map[string]*Run{},
		cache:    map[string]cacheEntry{},
		inflight: map[string]int{},
	}
	blobDir := ""
	if cfg.CkptDir != "" {
		blobDir = filepath.Join(cfg.CkptDir, "blobs")
	}
	blobs, err := fleet.NewBlobStore(blobDir, reg)
	if err != nil {
		return nil, fmt.Errorf("server: blob store: %w", err)
	}
	s.blobs = blobs
	s.fleet = fleet.NewManager(reg, cfg.LeaseTTL, s.onLeaseExpire)
	if err := s.restore(cfg.CkptDir); err != nil {
		s.fleet.Close()
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	if cfg.Workers > 0 {
		if err := s.startLocal(fleet.WorkerOptions{Slots: cfg.Workers}); err != nil {
			s.Close()
			return nil, err
		}
	}
	if cfg.RetentionMaxAge > 0 || cfg.RetentionMaxBytes > 0 {
		interval := cfg.RetentionInterval
		if interval <= 0 {
			interval = time.Minute
		}
		s.retWg.Add(1)
		go s.retentionLoop(interval)
	}
	return s, nil
}

// startLocal starts the worker that shares the coordinator's process: a
// fleet.Worker like any other, whose Coordinator is s itself. Its registry
// is its own, pushed like a remote worker's but no more often than one is:
// a snapshot is not worth taking at the in-process heartbeat's cadence.
func (s *Server) startLocal(o fleet.WorkerOptions) (err error) {
	o.Name = localWorkerID
	o.MetricsEvery = s.fleet.TTL() / 3
	s.local, err = fleet.Start(s, o)
	return err
}

// logf writes one operational message through the configured logger.
func (s *Server) logf(format string, args ...any) {
	s.logger.Printf(format, args...)
}

// Registry returns the registry holding the dyflow_server_* families.
func (s *Server) Registry() *obs.Registry { return s.reg }

// History returns the run-history store (tests and diagnostics).
func (s *Server) History() *runstore.Store { return s.history }

// cacheEntry is the result cache's value: just enough of a completed
// run to answer an identical submission without keeping its *Run
// resident. Existence implies the source run finished StateDone.
type cacheEntry struct {
	RunID     string
	Converged bool
	SimEnd    time.Duration
	Artifacts map[string]string
}

func cacheEntryFor(r *Run) cacheEntry {
	return cacheEntry{RunID: r.ID, Converged: r.Converged, SimEnd: r.SimEnd, Artifacts: r.Artifacts}
}

// maxTerminalRings bounds how many evicted terminal runs keep their SSE
// event rings for replay and their completing lease for result dedup.
const maxTerminalRings = 1024

// unixNs renders a phase timestamp for the history index (zero time → 0);
// nsTime is its inverse.
func unixNs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// runMetaLocked builds r's history record: everything about the run but
// its job's XML override. Caller holds the server mutex.
func (s *Server) runMetaLocked(r *Run) runstore.Meta {
	m := runstore.Meta{
		ID:            r.ID,
		Tenant:        r.Tenant,
		Scenario:      r.Job.Scenario,
		Machine:       r.Job.Machine,
		Seed:          r.Job.Seed,
		Key:           r.Job.Key(),
		State:         string(r.State),
		Terminal:      r.State.Terminal(),
		Cached:        r.Cached,
		Converged:     r.Converged,
		Error:         r.Err,
		Worker:        r.Worker,
		SubmittedAtNs: unixNs(r.SubmittedAt),
		QueuedAtNs:    unixNs(r.QueuedAt),
		ClaimedAtNs:   unixNs(r.ClaimedAt),
		StartedAtNs:   unixNs(r.StartedAt),
		FinishedAtNs:  unixNs(r.FinishedAt),
		SimEndNs:      int64(r.SimEnd),
		Artifacts:     r.Artifacts,
	}
	for _, digest := range r.Artifacts {
		m.ArtifactBytes += s.blobs.Size(digest)
	}
	return m
}

// historyAppendLocked records r's current state in the run-history
// store — the acknowledging write: callers make it before they publish
// the transition's event or answer 2xx. Caller holds the server mutex
// (the store has its own lock; s.mu → store is the only allowed order).
// A failure is logged here and counted by the store
// (dyflow_runstore_append_errors_total); Submit refuses on it, every
// other transition proceeds and the run stays resident until a later
// append records it.
//
// The meta is the record. Only an XML override does not fit in it, and
// only such a run carries a persistedRun document beside its meta.
func (s *Server) historyAppendLocked(r *Run) error {
	var doc []byte
	var err error
	if r.Job.XML != "" {
		doc, err = json.Marshal(r.persisted())
	}
	if err == nil {
		err = s.history.Append(s.runMetaLocked(r), doc)
	}
	if err != nil {
		s.logf("server: history append %s (%s): %v", r.ID, r.State, err)
	}
	return err
}

// evictTerminalLocked drops a terminal run from the resident map once
// its final record is in the history store — the bounded-heap half of
// the run-store design: only queued/running runs stay resident. Caller
// holds the server mutex.
func (s *Server) evictTerminalLocked(r *Run) {
	delete(s.runs, r.ID)
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == r.ID {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.retainRingLocked(doneRing{run: r.ID, lease: r.doneLease})
}

// doneRing is one evicted run whose SSE ring is still held, and the lease
// it reached its terminal state under ("" when it held none).
type doneRing struct{ run, lease string }

// retainRingLocked keeps an evicted run's SSE ring within the bounded
// retention window, dropping the oldest ring past it.
func (s *Server) retainRingLocked(d doneRing) {
	s.doneRings = append(s.doneRings, d)
	for len(s.doneRings) > maxTerminalRings {
		s.events.Drop(s.doneRings[0].run)
		s.doneRings = s.doneRings[1:]
	}
}

// storedRun is the one reader of history records. A record that carries a
// document is that document: every XML run, and every record written
// before the meta held machine, seed, error and worker. A record that
// carries none is its meta. intact is false when a document exists but
// could not be read back or is not this run's persistedRun; that is logged
// and counted, and p then holds what the meta knows — enough to list and
// serve the run, not enough to execute it (the XML is what was lost).
func (s *Server) storedRun(it runstore.Item) (p persistedRun, intact bool) {
	err := it.Err
	if err == nil && it.Doc != nil {
		var doc persistedRun // not p: Unmarshal would move it to the heap for the meta path too
		if err = json.Unmarshal(it.Doc, &doc); err == nil && doc.ID != it.Meta.ID {
			err = fmt.Errorf("document describes run %q", doc.ID)
		}
		if err == nil {
			return doc, true
		}
	}
	if err != nil {
		s.met.readErrs.Inc()
		s.logf("server: history document of %s unusable, serving its index entry: %v", it.Meta.ID, err)
	}
	m := &it.Meta
	return persistedRun{
		ID:           m.ID,
		Tenant:       m.Tenant,
		Job:          exp.Job{Scenario: m.Scenario, Machine: m.Machine, Seed: m.Seed},
		State:        RunState(m.State),
		Cached:       m.Cached,
		Err:          m.Error,
		Converged:    m.Converged,
		SimEndNs:     m.SimEndNs,
		Worker:       m.Worker,
		ArtifactRefs: m.Artifacts,
		SubmittedAt:  nsTime(m.SubmittedAtNs),
		QueuedAt:     nsTime(m.QueuedAtNs),
		ClaimedAt:    nsTime(m.ClaimedAtNs),
		StartedAt:    nsTime(m.StartedAtNs),
		FinishedAt:   nsTime(m.FinishedAtNs),
	}, err == nil
}

// evictedRun reads a run that is not resident from the history store
// (found=false: no such run). It takes no server lock.
func (s *Server) evictedRun(id string) (p persistedRun, intact, found bool) {
	it, found := s.history.Get(id)
	if !found {
		return persistedRun{}, false, false
	}
	p, intact = s.storedRun(it)
	return p, intact, true
}

// retentionLoop sweeps the retention policy until shutdown.
func (s *Server) retentionLoop(interval time.Duration) {
	defer s.retWg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopped:
			return
		case <-t.C:
			s.SweepRetention()
		}
	}
}

// SweepRetention applies the configured retention policy once: terminal
// runs beyond the per-tenant age/byte budgets are tombstoned in the
// history store, their cache entries and event rings released, and
// artifact blobs no longer referenced by any live record swept from the
// blob store. Returns the number of runs deleted.
//
// A blob uploaded by a worker between the keep-set read and its result
// POST can be swept in the window; the result handler's missing-blob
// check requeues that run, so the race costs a re-execution, never a
// dangling "done" run.
func (s *Server) SweepRetention() int {
	if s.history == nil {
		return 0
	}
	victims := s.history.SweepRetention(runstore.Retention{
		MaxAge:   s.cfg.RetentionMaxAge,
		MaxBytes: s.cfg.RetentionMaxBytes,
	}, time.Now())
	if len(victims) == 0 {
		return 0
	}
	keep := map[string]bool{}
	s.mu.Lock()
	for _, m := range victims {
		if ce, ok := s.cache[m.Key]; ok && ce.RunID == m.ID {
			delete(s.cache, m.Key)
		}
		s.events.Drop(m.ID)
	}
	for _, r := range s.runs {
		for _, digest := range r.Artifacts {
			keep[digest] = true
		}
	}
	s.mu.Unlock()
	for digest := range s.history.Digests() {
		keep[digest] = true
	}
	if removed := s.blobs.GC(keep); removed > 0 {
		s.met.gcBlobs.Add(int64(removed))
	}
	return len(victims)
}

// finishLocked moves a run to a terminal state, releasing its quota slot
// and lease and recording the transition. Caller holds the server mutex.
func (s *Server) finishLocked(r *Run, state RunState, err error) {
	r.State = state
	if err != nil && state == StateFailed {
		r.Err = err.Error()
	}
	r.FinishedAt = time.Now()
	s.unleaseLocked(r)
	s.fleet.Revoke(r.ID)
	s.inflight[r.Tenant]--
	if s.inflight[r.Tenant] <= 0 {
		delete(s.inflight, r.Tenant)
	}
	s.met.runsTotal.With(string(state)).Inc()
	// Record first, publish second: a delivered terminal event is always a
	// durable one. A failed append is not fatal to the run — on restart it
	// re-executes, which is deterministic — but it IS durability loss
	// (logged and counted), and the run stays resident, still servable.
	recorded := s.historyAppendLocked(r) == nil
	ev := events.Event{Type: terminalEventType(state), Worker: r.Worker,
		Cached: r.Cached, Converged: r.Converged, Error: r.Err}
	if state == StateDone {
		ev.SimSeconds = r.SimEnd.Seconds()
	}
	s.events.Append(r.ID, ev)
	// Release the resident entry — the run stays fully queryable (status,
	// artifacts, analytics, result dedup) through the store's indexes.
	if recorded {
		s.evictTerminalLocked(r)
	}
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

// resetToQueuedLocked returns a non-terminal run to the queued state —
// requeue after a lease expiry, a missing artifact blob, a restore, or
// shutdown — resetting its claim-phase fields and publishing the queued
// event with the reason. The caller pushes to the queue (or not:
// shutdown leaves requeueing to the next process). Caller holds the
// server mutex.
func (s *Server) resetToQueuedLocked(r *Run, reason string) {
	r.State = StateQueued
	r.QueuedAt = time.Now()
	r.ClaimedAt = time.Time{}
	r.StartedAt = time.Time{}
	r.Worker = ""
	s.unleaseLocked(r)
	r.simNow.Store(0)
	s.historyAppendLocked(r)
	s.events.Append(r.ID, events.Event{Type: events.TypeQueued, Reason: reason})
}

// unleaseLocked ends r's execution, if it has one in this process: the one
// place dyflow_server_active_runs comes down (leaseRun is where it goes
// up). A run restored as running has no lease and was never counted.
func (s *Server) unleaseLocked(r *Run) {
	if r.LeaseID != "" {
		r.LeaseID = ""
		s.met.active.Add(-1)
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

// finishFromCacheLocked completes a claimed run from the result cache
// when an identical job finished after this run was admitted. Reports
// whether it did. Caller holds the server mutex.
func (s *Server) finishFromCacheLocked(r *Run) bool {
	src, ok := s.cache[r.Job.Key()]
	if !ok || src.RunID == r.ID {
		return false
	}
	r.Cached = true
	r.Converged = src.Converged
	r.SimEnd = src.SimEnd
	r.simNow.Store(int64(src.SimEnd))
	r.Artifacts = src.Artifacts
	s.met.cacheHits.With(r.Tenant).Inc()
	s.events.Append(r.ID, events.Event{Type: events.TypeCacheHit, Reason: src.RunID})
	s.finishLocked(r, StateDone, nil)
	return true
}

// refsResolvable reports whether a done run's artifact references all
// resolve in the blob store.
func (s *Server) refsResolvable(refs map[string]string) bool {
	if len(refs) == 0 {
		return false
	}
	for _, digest := range refs {
		if !s.blobs.Has(digest) {
			return false
		}
	}
	return true
}

// onLeaseExpire is the fleet manager's lapsed-lease callback: the worker
// holding the run died or stalled, so the run goes back to the queue for
// exact re-execution. Never called with the manager lock held.
func (s *Server) onLeaseExpire(runID, workerID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs[runID]
	if r == nil || r.State != StateRunning || r.Worker != workerID {
		return
	}
	if r.cancel.Load() {
		// The worker died before observing the cancel; finish it here.
		s.finishLocked(r, StateCanceled, errRunCanceled)
		return
	}
	s.logf("server: lease on %s lapsed at %s; requeued", runID, workerID)
	s.events.Append(runID, events.Event{Type: events.TypeLeaseExpired, Worker: workerID})
	s.resetToQueuedLocked(r, "lease_expired")
	s.queue.requeue(runID)
}

// markStopping flags shutdown and closes the stopped channel exactly
// once, releasing any blocked SSE streams.
func (s *Server) markStopping() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopping {
		s.stopping = true
		close(s.stopped)
	}
}

// Submit admits one job for a tenant, returning the run's status. The
// error is an *APIError carrying the intended HTTP status.
func (s *Server) Submit(tenant string, job exp.Job) (Status, error) {
	if tenant == "" {
		tenant = "default"
	}
	job, err := job.Normalized()
	if err != nil {
		return Status{}, &APIError{Code: http.StatusBadRequest, Msg: err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return Status{}, &APIError{Code: http.StatusServiceUnavailable, Msg: "server is shutting down"}
	}

	// Cache fast path: an identical job already completed — answer from
	// its artifacts without touching the queue or the quota.
	if src, hit := s.cache[job.Key()]; hit {
		r := s.newRunLocked(tenant, job)
		r.State = StateDone
		r.QueuedAt = time.Time{} // answered from cache; never queued
		r.Cached = true
		r.Converged = src.Converged
		r.SimEnd = src.SimEnd
		r.simNow.Store(int64(src.SimEnd))
		r.Artifacts = src.Artifacts
		r.FinishedAt = time.Now()
		// The one record of this run, written before the acknowledgement.
		if err := s.historyAppendLocked(r); err != nil {
			return Status{}, s.dropRunLocked(r, err)
		}
		s.met.submissions.With(tenant).Inc()
		s.met.cacheHits.With(tenant).Inc()
		s.met.runsTotal.With(string(StateDone)).Inc()
		s.events.Append(r.ID, events.Event{Type: events.TypeCacheHit, Reason: src.RunID})
		s.events.Append(r.ID, events.Event{Type: events.TypeDone, Cached: true,
			Converged: r.Converged, SimSeconds: r.SimEnd.Seconds()})
		s.evictTerminalLocked(r)
		return r.status(), nil
	}

	if s.cfg.TenantQuota > 0 && s.inflight[tenant] >= s.cfg.TenantQuota {
		s.met.quotaRejects.With(tenant).Inc()
		return Status{}, &APIError{
			Code: http.StatusTooManyRequests,
			Msg:  fmt.Sprintf("tenant %q is at its in-flight quota (%d)", tenant, s.cfg.TenantQuota),
		}
	}

	r := s.newRunLocked(tenant, job)
	if err := s.queue.push(r.ID); err != nil {
		if errors.Is(err, errQueueFull) {
			s.met.queueRejects.Inc()
			return Status{}, s.dropRunLocked(r, &APIError{
				Code:       http.StatusTooManyRequests,
				Msg:        "run queue is full",
				RetryAfter: 1,
			})
		}
		return Status{}, s.dropRunLocked(r, err)
	}
	// Record after the push succeeded but before acknowledging: a crash
	// in the window loses only runs the client never saw accepted.
	if err := s.historyAppendLocked(r); err != nil {
		s.queue.remove(r.ID)
		return Status{}, s.dropRunLocked(r, err)
	}
	s.inflight[tenant]++
	s.met.submissions.With(tenant).Inc()
	s.events.Append(r.ID, events.Event{Type: events.TypeQueued})
	return r.status(), nil
}

// newRunLocked allocates and registers the next run. Caller holds the
// server mutex.
func (s *Server) newRunLocked(tenant string, job exp.Job) *Run {
	id := fmt.Sprintf("run-%06d", s.nextID)
	s.nextID++
	now := time.Now()
	r := &Run{
		ID:          id,
		Tenant:      tenant,
		Job:         job,
		State:       StateQueued,
		SubmittedAt: now,
		QueuedAt:    now,
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	return r
}

// dropRunLocked unregisters a run that failed admission and returns err.
func (s *Server) dropRunLocked(r *Run, err error) error {
	delete(s.runs, r.ID)
	if n := len(s.order); n > 0 && s.order[n-1] == r.ID {
		s.order = s.order[:n-1]
	}
	s.nextID--
	return err
}

// Cancel cancels a run: a queued run is pulled from the queue and finished
// immediately; a running run is flagged and aborts at its next progress
// tick. Canceling a terminal run is a no-op.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		// Evicted terminal runs cancel as the no-op they always were.
		if p, _, ok := s.evictedRun(id); ok {
			return p.status(), nil
		}
		return Status{}, &APIError{Code: http.StatusNotFound, Msg: "no such run"}
	}
	if r.State.Terminal() {
		return r.status(), nil
	}
	r.cancel.Store(true)
	if r.State == StateQueued && s.queue.remove(id) {
		s.finishLocked(r, StateCanceled, errRunCanceled)
	}
	return r.status(), nil
}

// RunStatus returns one run's status — resident runs live, evicted
// terminal runs from their history record, read after the server mutex is
// released (a run leaves the resident map only once its record is in).
func (s *Server) RunStatus(id string) (Status, error) {
	s.mu.Lock()
	if r := s.runs[id]; r != nil {
		st := r.status()
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()
	if p, _, ok := s.evictedRun(id); ok {
		return p.status(), nil
	}
	return Status{}, &APIError{Code: http.StatusNotFound, Msg: "no such run"}
}

// RunQuery filters GET /v1/runs; zero fields match everything.
type RunQuery struct {
	Tenant   string
	Scenario string
	State    string
	// Since/Until bound SubmittedAt (inclusive; zero = unbounded).
	Since time.Time
	Until time.Time
	// Limit caps the page size (<= 0: unlimited, internal callers).
	Limit int
	// PageToken resumes after a previous page's NextPageToken.
	PageToken string
}

// RunPage is one page of runs plus the cursor for the next.
type RunPage struct {
	Runs          []Status `json:"runs"`
	NextPageToken string   `json:"next_page_token,omitempty"`
}

// QueryRuns serves the filtered, paginated run listing from the history
// store's indexes. Every admitted run has a history record (appended at
// submission), so the store is the authoritative listing; resident runs
// render their live status instead of the recorded one. The server mutex
// is held for those lookups only — never across the store's reads or a
// document decode — so a page costs its items and delays no submit.
func (s *Server) QueryRuns(q RunQuery) (RunPage, error) {
	page, err := s.history.Query(runstore.Query{
		Tenant: q.Tenant, Scenario: q.Scenario, State: q.State,
		Since: q.Since, Until: q.Until,
		Limit: q.Limit, PageToken: q.PageToken,
	})
	if err != nil {
		return RunPage{}, &APIError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	out := RunPage{Runs: make([]Status, len(page.Items)), NextPageToken: page.NextPageToken}
	s.mu.Lock()
	for i := range page.Items {
		if r := s.runs[page.Items[i].Meta.ID]; r != nil {
			out.Runs[i] = r.status()
		}
	}
	s.mu.Unlock()
	for i := range page.Items {
		if out.Runs[i].ID == "" { // not resident
			p, _ := s.storedRun(page.Items[i])
			out.Runs[i] = p.status()
		}
	}
	return out, nil
}

// Runs lists every run in submission order (internal and test callers;
// the HTTP listing paginates through QueryRuns).
func (s *Server) Runs() []Status {
	page, err := s.QueryRuns(RunQuery{})
	if err != nil {
		return nil
	}
	out := page.Runs
	// Robustness: a resident run whose history append failed still lists.
	seen := make(map[string]bool, len(out))
	for _, st := range out {
		seen[st.ID] = true
	}
	s.mu.Lock()
	for _, id := range s.order {
		if !seen[id] {
			out = append(out, s.runs[id].status())
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Artifact returns one artifact of a finished run, resident or evicted.
func (s *Server) Artifact(id, name string) ([]byte, error) {
	s.mu.Lock()
	r, resident := s.runs[id]
	var state RunState
	var refs map[string]string
	if resident {
		state, refs = r.State, r.Artifacts
	}
	s.mu.Unlock()
	if !resident {
		p, _, ok := s.evictedRun(id)
		if !ok {
			return nil, &APIError{Code: http.StatusNotFound, Msg: "no such run"}
		}
		state, refs = p.State, p.ArtifactRefs
	}
	if state != StateDone {
		return nil, &APIError{Code: http.StatusConflict, Msg: fmt.Sprintf("run is %s, artifacts exist once it is done", state)}
	}
	digest, ok := refs[name]
	if !ok {
		return nil, &APIError{Code: http.StatusNotFound, Msg: "no such artifact"}
	}
	data, ok := s.blobs.Get(digest)
	if !ok {
		return nil, &APIError{Code: http.StatusNotFound, Msg: "artifact blob missing from store"}
	}
	return data, nil
}

// QueueDepth returns the number of queued runs (tests and the drain loop).
func (s *Server) QueueDepth() int { return s.queue.depthTotal() }

// Start begins serving the API on addr ("host:0" picks a free port) and
// returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("server: serve: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops gracefully: no run is leased any more, every heartbeat is
// answered Cancel and the run it aborts is recorded queued when its result
// comes back, the HTTP listener drains, the in-process worker stops — its
// runs are back within one heartbeat — and runs still leased to the fleet
// are recorded queued too, so the next process resumes every unfinished run
// from the history store.
func (s *Server) Shutdown(ctx context.Context) error {
	s.markStopping()

	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx)
	}
	if s.local != nil {
		s.local.Stop()
	}
	s.fleet.Close()
	s.retWg.Wait()

	s.mu.Lock()
	// Runs still leased to fleet workers go back to queued: the next
	// process re-executes them exactly, and any late result upload from
	// the old worker is rejected as stale.
	for _, id := range s.fleet.LeasedRuns() {
		s.fleet.Revoke(id)
		if r := s.runs[id]; r != nil && r.State == StateRunning {
			s.resetToQueuedLocked(r, "shutdown")
		}
	}
	s.mu.Unlock()
	s.history.Close()
	return httpErr
}

// Close stops hard, simulating a crash: the in-process worker is killed —
// its runs report nothing and stay recorded running — no drain, no lease
// hand-back: recovery works from whatever the history store already holds.
// Tests use it to prove the kill+restart path.
func (s *Server) Close() {
	if s.local != nil {
		s.local.Kill()
	}
	s.markStopping()
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.fleet.Close()
	s.retWg.Wait()
	s.history.Close()
}

// APIError is an error with an HTTP status.
type APIError struct {
	Code       int
	Msg        string
	RetryAfter int // seconds, optional
}

func (e *APIError) Error() string { return e.Msg }

// httpError writes err as an HTTP response: an *APIError keeps its status,
// anything else is a 500.
func httpError(w http.ResponseWriter, err error) {
	var api *APIError
	if !errors.As(err, &api) {
		api = &APIError{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	if api.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(api.RetryAfter))
	}
	http.Error(w, api.Msg, api.Code)
}

// jsonBufs recycles writeJSON's encode buffers across requests.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes first and writes with an explicit Content-Length so
// failures are never silent half-truths: an encode error surfaces as a
// clean 500 (nothing of the 2xx was written yet), and a connection torn
// mid-body leaves the client a short read against the advertised length —
// io.ErrUnexpectedEOF, which retrying clients treat as transient. The
// fleet Worker and faultnet's truncation mode both rely on this. The body
// is compact JSON ending in a newline; a reader who wants it indented
// pipes it through `jq .`.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.logf("server: encode json response: %v", err)
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.logf("server: write json response: %v", err)
	}
}

// Listing pagination bounds: the response is never the whole table —
// an omitted limit serves defaultListLimit runs and anything above
// maxListLimit is clamped to it (both documented in docs/SERVICE.md).
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// parseRunQuery decodes GET /v1/runs' filter parameters: tenant,
// scenario, state, since/until (RFC 3339), limit, page_token.
func parseRunQuery(r *http.Request) (RunQuery, error) {
	qs := r.URL.Query()
	q := RunQuery{
		Tenant:    qs.Get("tenant"),
		Scenario:  qs.Get("scenario"),
		State:     qs.Get("state"),
		PageToken: qs.Get("page_token"),
		Limit:     defaultListLimit,
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return RunQuery{}, &APIError{Code: http.StatusBadRequest, Msg: "limit must be a positive integer"}
		}
		q.Limit = n
	}
	if q.Limit > maxListLimit {
		q.Limit = maxListLimit
	}
	for _, tp := range []struct {
		name string
		dst  *time.Time
	}{{"since", &q.Since}, {"until", &q.Until}} {
		if v := qs.Get(tp.name); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				return RunQuery{}, &APIError{Code: http.StatusBadRequest,
					Msg: fmt.Sprintf("%s must be RFC 3339 (e.g. 2026-01-02T15:04:05Z): %v", tp.name, err)}
			}
			*tp.dst = t
		}
	}
	return q, nil
}

// SubmitRequest is the POST /v1/runs body: a tenant plus the job fields.
type SubmitRequest struct {
	Tenant string `json:"tenant"`
	exp.Job
}

// Handler returns the service's HTTP API:
//
//	POST /v1/runs                      submit  {tenant, scenario, machine, seed, xml}
//	GET  /v1/runs                      list runs; filters tenant, scenario, state,
//	                                   since, until (RFC 3339), limit, page_token
//	GET  /v1/runs/{id}                 one run's status
//	GET  /v1/runs/{id}/events          live event stream (SSE, Last-Event-ID resume)
//	POST /v1/runs/{id}/cancel          cancel
//	GET  /v1/runs/{id}/artifacts/{name}  report | gantt | perfetto | metrics
//	GET  /v1/analytics                 cross-campaign aggregates over the full run
//	                                   history; ?trend_bucket=1h&trend_buckets=24
//	                                   adds time-bucketed submission trends
//	GET  /metrics, /metrics.json       coordinator families + worker-labeled fleet families
//	GET  /healthz                      liveness
//
// plus the fleet worker API (worker_api.go): /v1/workers/*, /v1/blobs/*,
// GET /v1/fleet, and GET /v1/fleet/metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.met.httpReqs.With(name).Inc()
			h(w, r)
		})
	}
	route("POST /v1/runs", "submit", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad submit body: " + err.Error()})
			return
		}
		st, err := s.Submit(req.Tenant, req.Job)
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, st)
	})
	route("GET /v1/runs", "list", func(w http.ResponseWriter, r *http.Request) {
		q, err := parseRunQuery(r)
		if err != nil {
			httpError(w, err)
			return
		}
		page, err := s.QueryRuns(q)
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, page)
	})
	route("GET /v1/runs/{id}", "status", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.RunStatus(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	})
	route("POST /v1/runs/{id}/cancel", "cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	})
	route("GET /v1/runs/{id}/artifacts/{name}", "artifact", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		blob, err := s.Artifact(r.PathValue("id"), name)
		if err != nil {
			httpError(w, err)
			return
		}
		ct := "application/json"
		if name == exp.ArtifactGantt {
			ct = "text/plain; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		w.Write(blob)
	})
	route("GET /v1/runs/{id}/events", "events", s.handleRunEvents)
	route("GET /v1/analytics", "analytics", func(w http.ResponseWriter, r *http.Request) {
		var bucket time.Duration
		buckets := 0
		if v := r.URL.Query().Get("trend_bucket"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad trend_bucket (want a positive Go duration, e.g. 1h)"})
				return
			}
			bucket = d
		}
		if v := r.URL.Query().Get("trend_buckets"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad trend_buckets (want a positive integer)"})
				return
			}
			buckets = n
			if bucket == 0 {
				bucket = time.Hour
			}
		}
		s.writeJSON(w, http.StatusOK, s.AnalyticsWithTrends(bucket, buckets))
	})
	route("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.fleetRoutes(route)
	// One scrape sees the whole fleet: the coordinator's own families
	// plus every worker's pushed snapshot under a `worker` label.
	route("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.mergedSnapshot().WritePrometheus(w); err != nil {
			s.logf("server: write /metrics: %v", err)
		}
	})
	route("GET /metrics.json", "metrics_json", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.mergedSnapshot())
	})
	return mux
}

// mergedSnapshot is the fleet-wide metrics view: the coordinator's
// registry merged with each worker's last pushed registry snapshot,
// worker families tagged worker="<id>".
func (s *Server) mergedSnapshot() obs.Snapshot {
	parts := []obs.Snapshot{s.reg.Snapshot()}
	workers := s.fleet.MetricsSnapshots()
	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		parts = append(parts, workers[id].WithLabel("worker", id))
	}
	return obs.MergeSnapshots(parts...)
}
