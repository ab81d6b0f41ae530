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
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/runstore"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

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
// blob store, and the run lifecycle with its leases (lifecycle.go). It
// executes nothing itself: a run is leased to a fleet.Worker through the
// worker API (worker_api.go), whether that worker joined over HTTP or is
// the one New starts in this process (cfg.Workers slots, calling the same
// API as plain methods). It keeps one run table, the history store's
// index: a resident run is its record plus a lease, and every reader goes
// through viewLocked.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	met    *metrics
	queue  *runQueue
	blobs  *fleet.BlobStore
	fleet  *fleet.Manager // who has joined; which run each holds is on the run
	events *events.Journal
	logger *log.Logger

	// history is the durable, indexed run store (internal/runstore) and
	// the only record of run state: every transition is appended before
	// it is acknowledged or published, terminal runs are evicted from the
	// resident map once recorded, an evicted run is read from its record
	// (a runstore.Meta), and restore reads nothing else. Memory-only when
	// persistence is off (same API). Lock order: s.mu may be held while
	// calling into history, never the reverse (EachMeta callbacks must not
	// take s.mu).
	history *runstore.Store

	// stopped closes when shutdown begins, waking SSE streams so they
	// end instead of pinning http.Server.Shutdown to its deadline.
	stopped chan struct{}

	mu sync.Mutex
	// runs is the resident map: the runs a worker or the queue can still
	// touch, and a terminal run whose last append failed. Each one's Meta
	// is its current record.
	runs      map[string]*Run
	nextID    int
	nextLease int
	cache     map[string]string // job key → ID of the first run of it to finish done
	inflight  map[string]int    // tenant → queued+running runs
	stopping  bool
	// doneRings lists the evicted terminal runs the coordinator still holds
	// something of besides their record (FIFO, the last maxTerminalRings):
	// their SSE event ring — once it drops, a reconnecting client gets a
	// terminal event synthesized from history instead — and the lease each
	// finished under, so a worker retransmitting a result after its run
	// left the resident map still deduplicates.
	doneRings []doneRing

	// local is the worker sharing this process (nil when cfg.Workers < 0).
	local *fleet.Worker

	bg      sync.WaitGroup // the lease-expiry and retention loops
	httpSrv *http.Server
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
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	reg := obs.NewRegistry()
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
		cache:    map[string]string{},
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
	s.fleet = fleet.NewManager(reg)
	if err := s.restore(cfg.CkptDir); err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	s.every(max(cfg.LeaseTTL/4, 5*time.Millisecond), func() {
		s.mu.Lock()
		s.expireLeasesLocked(time.Now())
		s.mu.Unlock()
	})
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
		s.every(interval, func() { s.SweepRetention() })
	}
	return s, nil
}

// every runs fn each interval until shutdown begins; s.bg waits for it.
func (s *Server) every(interval time.Duration, fn func()) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stopped:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// startLocal starts the worker that shares the coordinator's process: a
// fleet.Worker like any other, whose Coordinator is s itself. Its registry
// is its own, pushed like a remote worker's.
func (s *Server) startLocal(o fleet.WorkerOptions) (err error) {
	o.Name = localWorkerID
	s.local, err = fleet.Start(s, o)
	return err
}

// logf writes one operational message through the configured logger.
func (s *Server) logf(format string, args ...any) {
	s.logger.Printf(format, args...)
}

// History returns the run-history store (tests and diagnostics).
func (s *Server) History() *runstore.Store { return s.history }

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
	key := job.Key()
	if src, hit := s.cachedLocked(key); hit {
		r := s.newRunLocked(tenant, job, key)
		// The one record of this run, written before the acknowledgement.
		if err := s.finishFromCacheLocked(r, src); err != nil {
			return Status{}, s.dropRunLocked(r, err)
		}
		s.met.submissions.With(tenant).Inc()
		return r.status(), nil
	}

	if s.cfg.TenantQuota > 0 && s.inflight[tenant] >= s.cfg.TenantQuota {
		s.met.quotaRejects.With(tenant).Inc()
		return Status{}, &APIError{
			Code: http.StatusTooManyRequests,
			Msg:  fmt.Sprintf("tenant %q is at its in-flight quota (%d)", tenant, s.cfg.TenantQuota),
		}
	}

	r := s.newRunLocked(tenant, job, key)
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
	if err := s.resetToQueuedLocked(r, "submit"); err != nil {
		s.queue.remove(r.ID)
		return Status{}, s.dropRunLocked(r, err)
	}
	s.met.submissions.With(tenant).Inc()
	return r.status(), nil
}

// Cancel cancels a run: a queued run is pulled from the queue and finished
// immediately; a running run is flagged and aborts at its next progress
// tick. Canceling a terminal run is a no-op.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.runs[id]; r != nil && !r.Terminal {
		r.cancel.Store(true)
		if r.state() == StateQueued && s.queue.remove(id) {
			s.finishLocked(r, StateCanceled, "cancel", "")
		}
	}
	return s.statusLocked(id)
}

// RunStatus returns one run's status.
func (s *Server) RunStatus(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(id)
}

// statusLocked renders run id's current state. Caller holds the server
// mutex.
func (s *Server) statusLocked(id string) (Status, error) {
	m, simNs, ok := s.viewLocked(id, nil)
	if !ok {
		return Status{}, &APIError{Code: http.StatusNotFound, Msg: "no such run"}
	}
	return recordStatus(m, simNs), nil
}

// Artifact returns one artifact of a finished run.
func (s *Server) Artifact(id, name string) ([]byte, error) {
	s.mu.Lock()
	m, _, ok := s.viewLocked(id, nil)
	var state RunState
	var refs map[string]string
	if ok {
		state, refs = RunState(m.State), m.Artifacts
	}
	s.mu.Unlock()
	if !ok {
		return nil, &APIError{Code: http.StatusNotFound, Msg: "no such run"}
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

// Start begins serving the API on addr ("host:0" picks a free port) and
// returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
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
	s.bg.Wait()

	s.mu.Lock()
	// Runs still leased to fleet workers go back to queued: the next
	// process re-executes them exactly, and any late result upload from
	// the old worker is rejected as stale.
	for _, r := range s.runs {
		if r.LeaseID != "" {
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
	s.bg.Wait()
	s.history.Close()
}
