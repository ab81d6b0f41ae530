package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// The sentinel errors a worker's progress hook aborts a run with.
var (
	errWorkerKilled = errors.New("fleet: worker killed")
	errLeaseLost    = errors.New("fleet: lease no longer current")
	errCancelled    = errors.New("fleet: run canceled by coordinator")
)

// WorkerOptions shapes one fleet worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's host:port (JoinFleet, Dial).
	Coordinator string
	// Name labels the worker in the coordinator's fleet view.
	Name string
	// Slots is the number of runs executed concurrently (claim loops).
	// 0 means 1.
	Slots int
	// ClaimWait is the long-poll window a claim blocks for when the queue
	// is empty. 0 means 500ms.
	ClaimWait time.Duration
	// CallTimeout is the per-RPC deadline over HTTP: no single coordinator
	// call may block longer than this (heartbeats use a tighter bound derived
	// from the lease TTL; claims add the long-poll window on top). 0 means 10s.
	CallTimeout time.Duration
	// RegisterWait bounds how long registration is retried against an
	// unreachable coordinator before giving up. 0 means 10s.
	RegisterWait time.Duration
	// BackoffSeed seeds retry jitter for reproducible tests. 0 seeds from
	// the clock.
	BackoffSeed int64
	// Client overrides the HTTP client (JoinFleet, Dial: tests, fault injection).
	Client *http.Client
	// OnClaim, when set (tests, chaos), is called with each claimed run ID
	// before execution starts — it can block to hold the lease mid-claim.
	OnClaim func(runID string)
}

// maxSpanBuffer caps the flight-recorder spans a worker buffers while the
// coordinator is unreachable; beyond it the oldest spans are dropped and
// counted in dyflow_worker_span_drops_total, as is the batch of a failed
// heartbeat.
const maxSpanBuffer = 1024

// Worker is one fleet member: it registers with its coordinator, then each
// slot loops claim → execute (RunJob on the slot's exp.Slot, heartbeating
// the lease on wall-clock cadence) → upload the run's blobs in one batch →
// report the result.
// Determinism makes abandoning work safe at any point: the coordinator's
// lease expiry requeues the run and its re-execution is byte-identical.
// Across runs a worker keeps its Docs — each shipped orchestration
// document, compiled once and shared by every slot — and each slot keeps
// its exp.Slot's render buffers, but for those the coordinator kept, and
// the []Blob its batches go up in.
//
// It is the service's only executor and reaches the coordinator through a
// Coordinator: over HTTP when it joined a fleet (JoinFleet), by plain method
// calls when the coordinator started it inside its own process (Start).
// Over a hostile network (see internal/server/faultnet) a call fails
// transiently — transport errors, 5xx, truncated responses — and is
// repeated with capped exponential backoff and full jitter, counted in
// dyflow_worker_rpc_retries_total. Result delivery is idempotent: the lease
// ID is the attempt-stable idempotency key, so a retried completion whose
// first acknowledgement was lost is deduplicated by the coordinator instead
// of counted stale.
type Worker struct {
	o      WorkerOptions
	c      Coordinator
	id     string
	hbEach time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	// claimCtx is ctx for claiming alone: once Stop cancels it the slots
	// claim no more, and one parked in a long-poll returns at once, while
	// executions and their uploads go on under ctx.
	claimCtx     context.Context
	cancelClaims context.CancelFunc
	wg           sync.WaitGroup

	killed atomic.Bool

	completed atomic.Int64

	// docs compiles each shipped orchestration document once for the
	// worker's whole life, shared by every slot's exp.Slot; a job's own
	// XML is compiled for that job and not kept.
	docs exp.Docs

	// reg holds the worker's dyflow_worker_* families; its snapshots are
	// pushed to the coordinator once per third of the lease TTL, and once
	// more by Stop.
	reg      *obs.Registry
	pushDone chan struct{}

	metClaims    *obs.Counter    // dyflow_worker_claims_total
	metRuns      *obs.CounterVec // dyflow_worker_runs_total{outcome}
	metRunSec    *obs.Histogram  // dyflow_worker_run_seconds
	metActive    *obs.Gauge      // dyflow_worker_active_runs
	metHB        *obs.Counter    // dyflow_worker_heartbeats_total
	metArtifacts *obs.Counter    // dyflow_worker_artifact_bytes_total
	metRetries   *obs.CounterVec // dyflow_worker_rpc_retries_total{call}
	metSpanDrops *obs.Counter    // dyflow_worker_span_drops_total
}

// JoinFleet registers a worker with the coordinator at o.Coordinator and
// starts its slot loops. Stop drains it gracefully; Kill abandons
// everything mid-lease.
func JoinFleet(o WorkerOptions) (*Worker, error) {
	w, err := Start(Dial(o), o)
	if err != nil {
		return nil, fmt.Errorf("fleet: join %s: %w", o.Coordinator, err)
	}
	return w, nil
}

// Start registers a worker with c and starts its slot loops: what JoinFleet
// does once it has a connection, and all a coordinator does to run
// `-workers N` (c is then the coordinator itself; o.Coordinator,
// o.CallTimeout and o.Client describe a connection and go unused).
func Start(c Coordinator, o WorkerOptions) (*Worker, error) {
	if o.Slots <= 0 {
		o.Slots = 1
	}
	if o.ClaimWait <= 0 {
		o.ClaimWait = 500 * time.Millisecond
	}
	if o.RegisterWait <= 0 {
		o.RegisterWait = 10 * time.Second
	}
	mreg := obs.NewRegistry()
	w := &Worker{o: o, c: c, reg: mreg, pushDone: make(chan struct{})}
	w.metClaims = mreg.Counter("dyflow_worker_claims_total",
		"Runs this worker claimed from the coordinator.").With()
	w.metRuns = mreg.Counter("dyflow_worker_runs_total",
		"Runs this worker finished, by outcome.", "outcome")
	w.metRunSec = mreg.Histogram("dyflow_worker_run_seconds",
		"Wall-clock execution time of runs on this worker.", nil).With()
	w.metActive = mreg.Gauge("dyflow_worker_active_runs",
		"Runs currently executing on this worker.").With()
	w.metHB = mreg.Counter("dyflow_worker_heartbeats_total",
		"Lease heartbeats this worker sent successfully.").With()
	w.metArtifacts = mreg.Counter("dyflow_worker_artifact_bytes_total",
		"Artifact bytes this worker uploaded to the blob store.").With()
	w.metRetries = mreg.Counter("dyflow_worker_rpc_retries_total",
		"Coordinator RPC attempts retried after a transient failure, by call.", "call")
	w.metSpanDrops = mreg.Counter("dyflow_worker_span_drops_total",
		"Flight-recorder spans dropped: the buffer filled while the coordinator was unreachable, or their heartbeat failed.").With()
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.claimCtx, w.cancelClaims = context.WithCancel(w.ctx)

	// Registration retries through a flaky network: workers are often
	// started alongside (or before) the coordinator.
	var reg RegisterResponse
	err := w.retry("register", time.Now().Add(o.RegisterWait), func() (err error) {
		reg, err = c.Register(w.ctx, RegisterRequest{Name: o.Name, Slots: o.Slots})
		return err
	})
	if err != nil {
		w.cancel()
		close(w.pushDone)
		return nil, fmt.Errorf("register: %w", err)
	}
	w.id = reg.WorkerID
	w.hbEach = heartbeatEvery(reg)

	for i := 0; i < o.Slots; i++ {
		w.wg.Add(1)
		go w.slot(i)
	}
	// A snapshot is not worth taking at the heartbeat cadence of an
	// in-process worker, so pushes keep the remote cadence, TTL/3.
	go w.metricsLoop(heartbeatEvery(RegisterResponse{LeaseTTLMs: reg.LeaseTTLMs}))
	return w, nil
}

// ID returns the coordinator-assigned worker ID.
func (w *Worker) ID() string { return w.id }

// Registry returns the worker's metrics registry.
func (w *Worker) Registry() *obs.Registry { return w.reg }

// Completed returns how many runs this worker finished and uploaded.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// Stop drains the worker: no new claims and a parked claim returns at
// once, in-flight runs finish and upload, a final metrics snapshot is
// pushed, then the loops exit.
func (w *Worker) Stop() {
	w.cancelClaims()
	w.wg.Wait()
	w.pushMetrics()
	w.cancel()
	<-w.pushDone
}

// Kill abandons the worker mid-lease, the chaos path: in-flight runs
// abort without uploading a result, in-flight requests are canceled, and
// no further traffic reaches the coordinator — exactly what a crashed or
// partitioned worker looks like. The coordinator's lease expiry requeues
// whatever this worker held.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.cancel()
	w.wg.Wait()
	<-w.pushDone
}

// metricsLoop pushes the worker's registry snapshot to the coordinator
// on a fixed cadence. Push failures are tolerated silently: metrics are
// observability, not correctness, and the coordinator keeps serving the
// last snapshot it saw.
func (w *Worker) metricsLoop(every time.Duration) {
	defer close(w.pushDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
			w.pushMetrics()
		}
	}
}

func (w *Worker) pushMetrics() {
	if w.killed.Load() {
		return // crashed workers push nothing
	}
	_ = w.c.PushMetrics(w.ctx, w.id, w.reg.Snapshot())
}

// slot is one claim-execute-upload loop. Claim failures back off with
// full jitter (workers outlive coordinator restarts without stampeding
// the restarted process) and reset on the first success.
func (w *Worker) slot(n int) {
	defer w.wg.Done()
	s := &runSlot{Slot: exp.NewSlot(&w.docs)}
	b := newBackoff(10*time.Millisecond, time.Second, mixSeed(w.o.BackoffSeed, int64(n)))
	for w.claimCtx.Err() == nil {
		// ok=false: the queue stayed empty for the whole window.
		claim, ok, err := w.c.Claim(w.claimCtx, w.id, w.o.ClaimWait)
		if err != nil {
			if w.claimCtx.Err() != nil {
				return
			}
			w.metRetries.With("claim").Inc()
			if !sleepCtx(w.claimCtx, b.next()) {
				return
			}
			continue
		}
		b.reset()
		if !ok {
			continue
		}
		w.metClaims.Inc()
		if w.o.OnClaim != nil {
			w.o.OnClaim(claim.RunID)
		}
		if w.killed.Load() {
			return // abandon the lease: no result, expiry requeues it
		}
		w.execute(s, claim)
	}
}

// runSlot is what one slot keeps across its runs: the exp.Slot its jobs
// render into and the batch its artifacts go up in.
type runSlot struct {
	*exp.Slot
	blobs []Blob
}

// mixSeed derives a per-slot jitter seed (0 stays 0 = clock-seeded).
func mixSeed(seed, n int64) int64 {
	if seed == 0 {
		return 0
	}
	return seed*31 + n + 1
}

// retry makes one coordinator call until it succeeds, is answered with a
// refusal, the worker is gone, or the deadline has passed — always at least
// once. Repeats wait out a capped exponential backoff with full jitter and
// are counted per call label in dyflow_worker_rpc_retries_total.
func (w *Worker) retry(label string, deadline time.Time, call func() error) error {
	var b *backoff
	for {
		err := call()
		if err == nil || errors.As(err, new(answered)) || w.ctx.Err() != nil || !time.Now().Before(deadline) {
			return err
		}
		if b == nil {
			b = newBackoff(10*time.Millisecond, time.Second, mixSeed(w.o.BackoffSeed, 1<<20+int64(len(label))))
		}
		w.metRetries.With(label).Inc()
		if !sleepCtx(w.ctx, b.next()) {
			return err
		}
	}
}

// spanBuffer accumulates the records of completed flight-recorder spans
// between heartbeats, bounded so a long partition cannot grow it without
// limit: past cap, the oldest spans are dropped and counted.
type spanBuffer struct {
	mu    sync.Mutex
	buf   []trace.SpanRecord
	cap   int
	drops *obs.Counter
}

// add appends sp, evicting the oldest beyond cap.
func (s *spanBuffer) add(sp ...trace.SpanRecord) {
	s.mu.Lock()
	s.buf = append(s.buf, sp...)
	if over := len(s.buf) - s.cap; over > 0 {
		s.buf = append(s.buf[:0:0], s.buf[over:]...)
		s.drops.Add(int64(over))
	}
	s.mu.Unlock()
}

// take drains the buffer.
func (s *spanBuffer) take() []trace.SpanRecord {
	s.mu.Lock()
	out := s.buf
	s.buf = nil
	s.mu.Unlock()
	return out
}

// execute runs one claimed job, heartbeating on wall-clock cadence, then
// uploads artifacts and reports the outcome. Flight-recorder spans that
// complete during execution accumulate locally (bounded) and are drained
// into heartbeats (the coordinator republishes them on the run's live
// event stream); whatever remains undrained rides along with the result.
//
// Heartbeat failures distinguish "coordinator slow or unreachable" from
// "lease lost": a failed send is survivable as long as the lease cannot
// yet have lapsed at the coordinator (the last accepted heartbeat is
// less than one TTL old), so the worker keeps executing across a short
// partition instead of abandoning work the lease still protects. Only a
// coordinator that explicitly reports the lease stale — or a silence
// longer than the TTL — aborts the run.
func (w *Worker) execute(s *runSlot, claim ClaimResponse) {
	ttl := time.Duration(claim.LeaseTTLMs) * time.Millisecond
	lastOK := time.Now() // last heartbeat the coordinator accepted (claim counts)
	hbNext := lastOK.Add(w.hbEach)
	hbRetry := min(w.hbEach/2, 200*time.Millisecond)
	w.metActive.Add(1)
	defer w.metActive.Add(-1)
	started := time.Now()

	spans := &spanBuffer{cap: maxSpanBuffer, drops: w.metSpanDrops}

	out, err := s.RunJob(claim.Job, func(world *exp.World) error {
		if world.Orch != nil {
			world.Trace.SetOnComplete(func(sp trace.Span) {
				spans.add(sp.Record())
			})
		}
		world.OnProgress = func(now sim.Time) error {
			if w.killed.Load() {
				return errWorkerKilled
			}
			if time.Now().Before(hbNext) {
				return nil
			}
			batch := spans.take()
			hb, err := w.c.Heartbeat(w.ctx, w.id, HeartbeatRequest{RunID: claim.RunID,
				LeaseID: claim.LeaseID, SimNs: int64(now), Spans: batch})
			if err != nil {
				// The coordinator may have published the batch before the
				// reply was lost: it is dropped, never sent twice.
				w.metSpanDrops.Add(int64(len(batch)))
				// Coordinator slow, partitioned, or restarting: survivable
				// inside the TTL. Retry sooner than the normal cadence and
				// give up only once the lease must have lapsed.
				w.metRetries.With("heartbeat").Inc()
				hbNext = time.Now().Add(hbRetry)
				if time.Since(lastOK) > ttl {
					return errLeaseLost
				}
				return nil
			}
			w.metHB.Inc()
			lastOK = time.Now()
			hbNext = lastOK.Add(w.hbEach)
			switch {
			case !hb.Valid:
				return errLeaseLost
			case hb.Cancel:
				return errCancelled
			}
			return nil
		}
		return nil
	})
	w.metRunSec.Observe(time.Since(started).Seconds())

	// The result-delivery horizon: the worker stopped heartbeating when
	// execution ended, so the lease lapses at the coordinator one TTL
	// after the last accepted heartbeat. Retrying past that point is
	// pointless — expiry has already requeued the run.
	horizon := lastOK.Add(ttl)

	switch {
	case w.killed.Load():
		return // crashed workers upload nothing
	case errors.Is(err, errLeaseLost):
		return // the run was requeued under us; our result would be stale
	case errors.Is(err, errCancelled):
		w.report(ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID,
			Canceled: true, Error: errCancelled.Error(), Spans: spans.take()}, horizon)
	case err != nil:
		w.report(ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID,
			Error: err.Error(), Spans: spans.take()}, horizon)
	default:
		refs, uerr := w.uploadArtifacts(s, out.Artifacts, horizon)
		if uerr != nil {
			if w.ctx.Err() != nil {
				return
			}
			// The blob plane is degraded but the run itself succeeded:
			// hand the lease back for requeue instead of failing the run —
			// the coordinator publishes it as queued/result_upload_failed.
			w.report(ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID,
				Requeue: true, Error: fmt.Sprintf("artifact upload: %v", uerr)}, horizon)
			return
		}
		w.report(ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID,
			Converged: out.Converged, SimEndNs: int64(out.SimEnd),
			Artifacts: refs, Spans: spans.take()}, horizon)
	}
}

// uploadArtifacts sends all of a run's artifact blobs in one batch and
// returns the name → digest reference map. The batch is retried whole
// until the horizon: content addressing makes the blobs a lost reply had
// already stored, and the coordinator's copies from re-executions and
// shared cache hits, dedups. An artifact the coordinator kept is dropped
// from the slot that rendered it, so the slot's next job does not write
// over it.
func (w *Worker) uploadArtifacts(s *runSlot, artifacts map[string][]byte, horizon time.Time) (map[string]string, error) {
	refs := make(map[string]string, len(artifacts))
	size := 0
	for name, data := range artifacts {
		digest := Digest(data)
		refs[name] = digest
		s.blobs = append(s.blobs, Blob{Name: name, Digest: digest, Data: data})
		size += len(data)
	}
	err := w.retry("blob", horizon, func() error { return w.c.PutBlobs(w.ctx, s.blobs) })
	for _, b := range s.blobs {
		if b.Kept {
			s.Drop(b.Name)
		}
	}
	clear(s.blobs) // hold no artifact past its upload
	s.blobs = s.blobs[:0]
	if err != nil {
		return nil, err
	}
	w.metArtifacts.Add(int64(size))
	return refs, nil
}

// report delivers the result, retrying transient failures until the lease
// horizon. The retry is safe because the coordinator deduplicates by
// lease ID: a second delivery of an already-applied result is answered
// Accepted without re-finishing the run. A rejected (stale) upload is
// dropped silently — the coordinator has already moved on.
func (w *Worker) report(res ResultRequest, horizon time.Time) {
	switch {
	case res.Requeue:
		// Not an outcome: the run goes back to the queue.
	case res.Canceled:
		w.metRuns.With("canceled").Inc()
	case res.Error != "":
		w.metRuns.With("failed").Inc()
	default:
		w.metRuns.With("done").Inc()
	}
	var resp ResultResponse
	err := w.retry("result", horizon, func() (err error) {
		resp, err = w.c.Result(w.ctx, w.id, res)
		return err
	})
	if err != nil {
		return // coordinator gone past the lease horizon; expiry handles the run
	}
	if resp.Accepted && !res.Requeue && res.Error == "" && !res.Canceled {
		w.completed.Add(1)
	}
}
