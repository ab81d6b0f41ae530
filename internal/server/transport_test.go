package server

import (
	"bytes"
	"context"
	"log"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// The run lifecycle, driven once over each of the two ways a worker reaches
// its coordinator: there is one execution path, and everything a client can
// see of a run — its events, its status, its artifacts — is the same
// whichever transport carried it.

// transport is one of them.
type transport struct {
	name string
	// start gives s a worker: the in-process one New starts for Workers: N
	// (Shutdown and Close own it), or one joined over loopback HTTP (stopped
	// at the end of the test).
	start func(t *testing.T, s *Server, o fleet.WorkerOptions) *fleet.Worker
	// dial is the worker API itself, for a test that plays the worker by hand.
	dial func(t *testing.T, s *Server) fleet.Coordinator
	// heartbeat is how often a worker started under a lease TTL heartbeats.
	heartbeat func(ttl time.Duration) time.Duration
}

// listen serves s on a loopback port once and returns the address.
func listen(t *testing.T, s *Server) string {
	t.Helper()
	if s.ln == nil {
		if _, err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	return s.ln.Addr().String()
}

var transports = []transport{
	{
		name: "inproc",
		start: func(t *testing.T, s *Server, o fleet.WorkerOptions) *fleet.Worker {
			t.Helper()
			if err := s.startLocal(o); err != nil {
				t.Fatal(err)
			}
			return s.local
		},
		dial:      func(_ *testing.T, s *Server) fleet.Coordinator { return s },
		heartbeat: func(ttl time.Duration) time.Duration { return min(progressEventEvery, ttl/3) },
	},
	{
		name: "http",
		start: func(t *testing.T, s *Server, o fleet.WorkerOptions) *fleet.Worker {
			t.Helper()
			o.Coordinator = listen(t, s)
			w, err := fleet.JoinFleet(o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
			return w
		},
		dial: func(t *testing.T, s *Server) fleet.Coordinator {
			return fleet.Dial(fleet.WorkerOptions{Coordinator: listen(t, s)})
		},
		heartbeat: func(ttl time.Duration) time.Duration { return ttl / 3 },
	},
}

// observed is what a client can see of one run.
type observed struct {
	// Events is the run's stream as type[/reason], progress and span events
	// left out: how many of those there are depends on the heartbeat cadence,
	// which the transports do not share.
	Events []string
	// Status is the run's final status without its timestamps and worker.
	Status Status
}

// observe reads id's whole event ring and its status.
func observe(t *testing.T, s *Server, id string) observed {
	t.Helper()
	sub := s.events.Subscribe(id, 0)
	defer sub.Close()
	evs, missed := sub.Poll()
	if missed > 0 {
		t.Fatalf("run %s: ring overran by %d events; raise EventBuffer", id, missed)
	}
	var o observed
	for _, ev := range evs {
		if ev.Type == events.TypeProgress || ev.Type == events.TypeSpan {
			continue
		}
		name := string(ev.Type)
		if ev.Reason != "" && ev.Type != events.TypeCacheHit {
			name += "/" + ev.Reason
		}
		o.Events = append(o.Events, name)
	}
	st, err := s.RunStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	st.Worker = ""
	st.SubmittedAt = time.Time{}
	st.QueuedAt, st.ClaimedAt, st.StartedAt, st.FinishedAt = nil, nil, nil, nil
	if st.State != StateDone {
		st.SimSeconds = 0 // how far a run had got when it was stopped is timing
	}
	o.Status = st
	return o
}

// forEachTransport runs drive once per transport and requires the runs it
// reports to have looked the same to a client on both.
func forEachTransport(t *testing.T, drive func(t *testing.T, tr transport) []observed) {
	t.Helper()
	seen := make([][]observed, len(transports))
	for i, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { seen[i] = drive(t, tr) })
	}
	if !t.Failed() && !reflect.DeepEqual(seen[0], seen[1]) {
		t.Fatalf("a client can tell the transports apart:\n%s: %+v\n%s: %+v",
			transports[0].name, seen[0], transports[1].name, seen[1])
	}
}

// newCoordinator builds a coordinator that executes nothing until the test
// gives it a worker. Its event rings hold a whole xgc run's spans.
func newCoordinator(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Workers, cfg.TenantQuota = -1, -1
	if cfg.EventBuffer == 0 {
		cfg.EventBuffer = 1 << 14
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// quickWorker is the options of a worker that polls often enough for a test.
func quickWorker() fleet.WorkerOptions {
	return fleet.WorkerOptions{ClaimWait: 50 * time.Millisecond}
}

func xgc(seed int64) exp.Job {
	return exp.Job{Scenario: exp.ScenarioXGC, Machine: "dt2", Seed: seed}
}

// direct memoizes exp.RunJob made here, with no service around it: what a
// run's artifacts are compared with. A job is run once per test process,
// however many transports and -count iterations ask for it.
var direct struct {
	sync.Mutex
	artifacts map[exp.Job]map[string][]byte
}

// requireDirectArtifacts checks a done run's artifacts byte for byte against
// a direct exp.RunJob of the same job.
func requireDirectArtifacts(t *testing.T, s *Server, id string, job exp.Job) {
	t.Helper()
	direct.Lock()
	want, ok := direct.artifacts[job]
	if !ok {
		out, err := exp.RunJob(job, nil)
		if err != nil {
			direct.Unlock()
			t.Fatal(err)
		}
		if direct.artifacts == nil {
			direct.artifacts = map[exp.Job]map[string][]byte{}
		}
		want = out.Artifacts
		direct.artifacts[job] = want
	}
	direct.Unlock()
	for name, data := range want {
		got, err := s.Artifact(id, name)
		if err != nil {
			t.Fatalf("run %s artifact %s: %v", id, name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("run %s (%s): artifact %s differs from a direct exp.RunJob", id, job.Scenario, name)
		}
	}
}

func TestLifecycle(t *testing.T) {
	ctx := context.Background()

	// Submit → done, for every scenario the service knows, two at a time: the
	// artifacts are the bytes a direct exp.RunJob produces.
	t.Run("Done", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) (seen []observed) {
			s := newCoordinator(t, Config{})
			o := quickWorker()
			o.Slots = 2
			tr.start(t, s, o)
			jobs := map[string]exp.Job{}
			var ids []string
			for i, scenario := range exp.Scenarios() {
				job := exp.Job{Scenario: scenario, Machine: "dt2", Seed: int64(40 + i)}
				st, err := s.Submit("alice", job)
				if err != nil {
					t.Fatal(err)
				}
				ids, jobs[st.ID] = append(ids, st.ID), job
			}
			for _, id := range ids {
				if st := await(t, s, id); st.State != StateDone || st.Cached || st.Worker == "" {
					t.Fatalf("%s run ended %+v", jobs[id].Scenario, st)
				}
				requireDirectArtifacts(t, s, id, jobs[id])
				seen = append(seen, observe(t, s, id))
			}
			return seen
		})
	})

	// Cancel while running: the worker hears of it at its next heartbeat —
	// 10 ms away in-process, a third of the TTL over HTTP — and the run is
	// canceled within 100 ms of that.
	t.Run("CancelRunning", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			const ttl = 150 * time.Millisecond
			s := newCoordinator(t, Config{LeaseTTL: ttl})
			claimed := make(chan string, 1)
			o := quickWorker()
			o.OnClaim = func(id string) { claimed <- id }
			tr.start(t, s, o)
			st, err := s.Submit("alice", xgc(1))
			if err != nil {
				t.Fatal(err)
			}
			<-claimed
			asked := time.Now()
			if _, err := s.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
			if st = await(t, s, st.ID); st.State != StateCanceled {
				t.Fatalf("canceled run ended %s: %s", st.State, st.Error)
			}
			within := tr.heartbeat(ttl) + 100*time.Millisecond
			if took := time.Since(asked); took > within {
				t.Fatalf("cancel took %s to finish the run, want within %s", took, within)
			}
			return []observed{observe(t, s, st.ID)}
		})
	})

	// Cancel between the queue pop and the lease: the run is out of the
	// queue, so Cancel can only flag it; the lease step finishes it.
	t.Run("CancelBetweenPopAndLease", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			s := newCoordinator(t, Config{})
			st, err := s.Submit("alice", quick(50))
			if err != nil {
				t.Fatal(err)
			}
			id, _ := s.queue.tryPop()
			if id != st.ID {
				t.Fatalf("popped %q, want %s", id, st.ID)
			}
			if got, err := s.Cancel(id); err != nil || got.State != StateQueued {
				t.Fatalf("cancel of a popped run: %v %+v", err, got)
			}
			w := tr.start(t, s, quickWorker())
			if _, ok, err := s.leaseRun(w.ID(), id); ok || err != nil {
				t.Fatalf("a canceled run was leased (%v)", err)
			}
			if st = await(t, s, id); st.State != StateCanceled {
				t.Fatalf("run ended %s", st.State)
			}
			// The worker was never handed it and goes on working.
			next, err := s.Submit("alice", quick(51))
			if err != nil {
				t.Fatal(err)
			}
			if next = await(t, s, next.ID); next.State != StateDone {
				t.Fatalf("next run ended %s: %s", next.State, next.Error)
			}
			return []observed{observe(t, s, id), observe(t, s, next.ID)}
		})
	})

	// Cache hit at claim time: two identical jobs queued behind one slot; the
	// second is answered by the first's result when its turn comes.
	t.Run("CacheHitAtClaim", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			s := newCoordinator(t, Config{})
			first, err := s.Submit("alice", quick(60))
			if err != nil {
				t.Fatal(err)
			}
			second, err := s.Submit("bob", quick(60))
			if err != nil {
				t.Fatal(err)
			}
			if second.Cached || second.State != StateQueued {
				t.Fatalf("second submission answered before the first ran: %+v", second)
			}
			tr.start(t, s, quickWorker())
			first, second = await(t, s, first.ID), await(t, s, second.ID)
			if first.State != StateDone || first.Cached || second.State != StateDone || !second.Cached {
				t.Fatalf("first %+v, second %+v", first, second)
			}
			requireDirectArtifacts(t, s, second.ID, quick(60))
			if v := counter(t, s, "dyflow_server_fleet_claims_total"); v != 1 {
				t.Fatalf("fleet_claims_total = %v, want 1: the cached run needed no worker", v)
			}
			return []observed{observe(t, s, first.ID), observe(t, s, second.ID)}
		})
	})

	// A result naming a blob the store does not hold cannot finish the run —
	// its artifacts would 404 — so the run is requeued and finishes properly.
	t.Run("MissingBlob", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			s := newCoordinator(t, Config{})
			st, err := s.Submit("alice", quick(70))
			if err != nil {
				t.Fatal(err)
			}
			c := tr.dial(t, s)
			reg, err := c.Register(ctx, fleet.RegisterRequest{Name: "by-hand", Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			claim, ok, err := c.Claim(ctx, reg.WorkerID, 10*time.Second)
			if err != nil || !ok || claim.RunID != st.ID {
				t.Fatalf("claim: %v %v %+v", err, ok, claim)
			}
			res, err := c.Result(ctx, reg.WorkerID, fleet.ResultRequest{RunID: st.ID, LeaseID: claim.LeaseID,
				Converged: true, Artifacts: map[string]string{exp.ArtifactReport: fleet.Digest([]byte("never uploaded"))}})
			if err != nil || res.Accepted {
				t.Fatalf("result naming a missing blob: %v %+v", err, res)
			}
			if got, _ := s.RunStatus(st.ID); got.State != StateQueued {
				t.Fatalf("run is %s after a missing-blob result", got.State)
			}
			tr.start(t, s, quickWorker())
			if st = await(t, s, st.ID); st.State != StateDone {
				t.Fatalf("requeued run ended %s: %s", st.State, st.Error)
			}
			requireDirectArtifacts(t, s, st.ID, quick(70))
			if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
				t.Fatalf("runs_total = %v for 1 submission", v)
			}
			return []observed{observe(t, s, st.ID)}
		})
	})

	// A worker killed mid-lease: the lease lapses, the run is requeued and
	// finished by the next worker — one terminal transition — and the dead
	// worker's result, arriving late, is counted stale.
	t.Run("KillMidLease", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			s := newCoordinator(t, Config{LeaseTTL: 400 * time.Millisecond}) // a quick run is over well inside it
			claimed := make(chan string, 1)
			release := make(chan struct{})
			o := quickWorker()
			o.OnClaim = func(id string) {
				claimed <- id
				<-release
			}
			victim := tr.start(t, s, o)
			st, err := s.Submit("alice", quick(80))
			if err != nil {
				t.Fatal(err)
			}
			sub := s.events.Subscribe(st.ID, 0)
			defer sub.Close()
			<-claimed
			s.mu.Lock()
			workerID, leaseID := s.runs[st.ID].Worker, s.runs[st.ID].LeaseID
			s.mu.Unlock()
			killed := make(chan struct{})
			go func() {
				victim.Kill()
				close(killed)
			}()
			time.Sleep(20 * time.Millisecond) // let Kill flag the worker before its slot is released
			close(release)
			<-killed
			awaitRunEvent(t, sub, events.TypeQueued, "lease_expired")

			res, err := tr.dial(t, s).Result(ctx, workerID, fleet.ResultRequest{RunID: st.ID, LeaseID: leaseID, Converged: true})
			if err != nil || res.Accepted {
				t.Fatalf("late result: %v %+v", err, res)
			}
			if v := counter(t, s, "dyflow_server_fleet_stale_results_total"); v != 1 {
				t.Fatalf("stale_results_total = %v, want 1", v)
			}
			tr.start(t, s, quickWorker())
			if st = await(t, s, st.ID); st.State != StateDone {
				t.Fatalf("requeued run ended %s: %s", st.State, st.Error)
			}
			if v := counter(t, s, "dyflow_server_runs_total"); v != 1 {
				t.Fatalf("runs_total = %v for 1 submission", v)
			}
			if victim.Completed() != 0 {
				t.Fatalf("killed worker reports %d completions", victim.Completed())
			}
			return []observed{observe(t, s, st.ID)}
		})
	})

	// A result delivered twice — its first acknowledgement lost — is applied
	// once: the lease it names is the idempotency key.
	t.Run("RetransmittedResult", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			s := newCoordinator(t, Config{})
			w := tr.start(t, s, quickWorker())
			st, err := s.Submit("alice", quick(90))
			if err != nil {
				t.Fatal(err)
			}
			if st = await(t, s, st.ID); st.State != StateDone {
				t.Fatalf("run ended %s: %s", st.State, st.Error)
			}
			s.mu.Lock()
			lease := s.doneRings[len(s.doneRings)-1].lease
			s.mu.Unlock()
			res, err := tr.dial(t, s).Result(ctx, w.ID(), fleet.ResultRequest{RunID: st.ID, LeaseID: lease, Converged: true})
			if err != nil || !res.Accepted || res.Reason != "duplicate" {
				t.Fatalf("retransmitted result: %v %+v, want Accepted/duplicate", err, res)
			}
			for series, want := range map[string]float64{
				"dyflow_server_fleet_duplicate_results_total": 1,
				"dyflow_server_fleet_stale_results_total":     0,
				"dyflow_server_runs_total":                    1,
			} {
				if v := counter(t, s, series); v != want {
					t.Fatalf("%s = %v, want %v", series, v, want)
				}
			}
			return []observed{observe(t, s, st.ID)}
		})
	})

	// A late result for a done run is checked against the one applied: a
	// retransmission naming the applied digests is a plain duplicate, and
	// one naming other digests — a duplicate or the upload of a lapsed
	// lease — is counted as a mismatch and logged with both digests, while
	// the run keeps the artifacts it has.
	t.Run("MismatchedResult", func(t *testing.T) {
		forEachTransport(t, func(t *testing.T, tr transport) []observed {
			sink := &syncBuf{}
			s := newCoordinator(t, Config{Logger: log.New(sink, "", 0)})
			w := tr.start(t, s, quickWorker())
			st, err := s.Submit("alice", quick(95))
			if err != nil {
				t.Fatal(err)
			}
			if st = await(t, s, st.ID); st.State != StateDone {
				t.Fatalf("run ended %s: %s", st.State, st.Error)
			}
			s.mu.Lock()
			lease := s.doneRings[len(s.doneRings)-1].lease
			s.mu.Unlock()
			applied := appliedArtifacts(t, s, st.ID)
			forged := maps.Clone(applied)
			forged[exp.ArtifactGantt] = fleet.Digest([]byte("another execution's chart"))
			c := tr.dial(t, s)
			for _, up := range []struct {
				lease     string
				artifacts map[string]string
				accepted  bool
				mismatch  float64
			}{
				{lease, applied, true, 0},
				{lease, forged, true, 1},
				{"lapsed-lease", forged, false, 2},
				{"lapsed-lease", applied, false, 2},
			} {
				res, err := c.Result(ctx, w.ID(), fleet.ResultRequest{RunID: st.ID, LeaseID: up.lease, Converged: true, Artifacts: up.artifacts})
				if err != nil || res.Accepted != up.accepted {
					t.Fatalf("late result under %s: %v %+v, want accepted %v", up.lease, err, res, up.accepted)
				}
				if v := counter(t, s, "dyflow_server_result_mismatch_total"); v != up.mismatch {
					t.Fatalf("after a late result under %s: result_mismatch_total = %v, want %v", up.lease, v, up.mismatch)
				}
			}
			for _, want := range []string{st.ID, applied[exp.ArtifactGantt], forged[exp.ArtifactGantt]} {
				if !strings.Contains(sink.String(), want) {
					t.Fatalf("the mismatch log does not name %s:\n%s", want, sink)
				}
			}
			if !maps.Equal(appliedArtifacts(t, s, st.ID), applied) {
				t.Fatal("a mismatched late result replaced the applied artifacts")
			}
			requireDirectArtifacts(t, s, st.ID, quick(95))
			return []observed{observe(t, s, st.ID)}
		})
	})
}

// appliedArtifacts returns the artifact digests the coordinator applied
// to a done run.
func appliedArtifacts(t *testing.T, s *Server, id string) map[string]string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	m, _, ok := s.viewLocked(id, nil)
	if !ok || len(m.Artifacts) == 0 {
		t.Fatalf("run %s has no applied artifacts", id)
	}
	return maps.Clone(m.Artifacts)
}

// TestShutdownRequeuesRunningRun: a graceful Shutdown with a run
// mid-execution leaves it recorded queued — never canceled, nobody canceled
// it — and the next process runs it to the bytes a direct run produces.
func TestShutdownRequeuesRunningRun(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport) []observed {
		dir := t.TempDir()
		s := newCoordinator(t, Config{CkptDir: dir, LeaseTTL: 150 * time.Millisecond})
		claimed := make(chan string, 1)
		o := quickWorker()
		o.OnClaim = func(id string) { claimed <- id }
		tr.start(t, s, o)
		st, err := s.Submit("alice", xgc(2))
		if err != nil {
			t.Fatal(err)
		}
		sub := s.events.Subscribe(st.ID, 0)
		defer sub.Close()
		<-claimed
		// Into the run: its first heartbeat has been and gone.
		progress := s.events.Subscribe(st.ID, 0)
		awaitRunEvent(t, progress, events.TypeProgress, "")
		progress.Close()

		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		evs, _ := sub.Poll()
		for _, ev := range evs {
			if ev.Type == events.TypeCanceled {
				t.Fatal("the shutdown published a canceled event for a run nobody canceled")
			}
		}
		if last := evs[len(evs)-1]; last.Type != events.TypeQueued || last.Reason != "shutdown" {
			t.Fatalf("stream ends in %s/%s, want queued/shutdown", last.Type, last.Reason)
		}
		if m, ok := s.History().GetMeta(st.ID); !ok || m.State != string(StateQueued) {
			t.Fatalf("record reads %+v, want queued", m)
		}

		s2, err := New(Config{Workers: 1, CkptDir: dir, EventBuffer: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got := await(t, s2, st.ID); got.State != StateDone {
			t.Fatalf("run ended %s in the next process: %s", got.State, got.Error)
		}
		requireDirectArtifacts(t, s2, st.ID, xgc(2))
		return []observed{observe(t, s2, st.ID)}
	})
}

// TestShutdownAbortIsNotACancel plays the worker by hand through the window
// the bug needed: the coordinator is stopping, so the heartbeat says Cancel;
// the Canceled result that answers it must requeue the run. Had a client
// canceled the run as well, canceled is what it becomes.
func TestShutdownAbortIsNotACancel(t *testing.T) {
	ctx := context.Background()
	forEachTransport(t, func(t *testing.T, tr transport) []observed {
		s := newCoordinator(t, Config{})
		c := tr.dial(t, s)
		reg, err := c.Register(ctx, fleet.RegisterRequest{Name: "by-hand", Slots: 2})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		var claims []fleet.ClaimResponse
		for seed := int64(0); seed < 2; seed++ {
			st, err := s.Submit("alice", quick(seed))
			if err != nil {
				t.Fatal(err)
			}
			claim, ok, err := c.Claim(ctx, reg.WorkerID, 10*time.Second)
			if err != nil || !ok || claim.RunID != st.ID {
				t.Fatalf("claim: %v %v %+v", err, ok, claim)
			}
			ids, claims = append(ids, st.ID), append(claims, claim)
		}
		if _, err := s.Cancel(ids[1]); err != nil {
			t.Fatal(err)
		}
		s.markStopping() // Shutdown's first step; the listener is still up
		for i, claim := range claims {
			hb, err := c.Heartbeat(ctx, reg.WorkerID, fleet.HeartbeatRequest{RunID: claim.RunID, LeaseID: claim.LeaseID})
			if err != nil || !hb.Valid || !hb.Cancel {
				t.Fatalf("heartbeat to a stopping coordinator: %v %+v", err, hb)
			}
			res, err := c.Result(ctx, reg.WorkerID, fleet.ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID, Canceled: true})
			if err != nil || !res.Accepted {
				t.Fatalf("canceled result %d: %v %+v", i, err, res)
			}
		}
		for i, want := range []RunState{StateQueued, StateCanceled} {
			if st, _ := s.RunStatus(ids[i]); st.State != want {
				t.Fatalf("run %d is %s, want %s", i, st.State, want)
			}
		}
		if s.QueueDepth() != 0 {
			t.Fatal("the aborted run was pushed back for a stopping coordinator to lease again")
		}
		aborted := observe(t, s, ids[0])
		if last := aborted.Events[len(aborted.Events)-1]; last != "queued/shutdown" || strings.Contains(strings.Join(aborted.Events, " "), "canceled") {
			t.Fatalf("aborted run's stream: %v", aborted.Events)
		}
		return []observed{aborted, observe(t, s, ids[1])}
	})
}

// TestRequeueIsNotAnOutcome: a worker that hands its lease back because it
// cannot deliver the artifacts has not finished the run, so GET /v1/fleet
// counts a claim for it and no outcome — its `completed` used to climb by
// one per hand-back.
func TestRequeueIsNotAnOutcome(t *testing.T) {
	ctx := context.Background()
	forEachTransport(t, func(t *testing.T, tr transport) []observed {
		s := newCoordinator(t, Config{})
		c := tr.dial(t, s)
		reg, err := c.Register(ctx, fleet.RegisterRequest{Name: "by-hand", Slots: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit("alice", quick(1))
		if err != nil {
			t.Fatal(err)
		}
		const handBacks = 3
		for i := 0; i <= handBacks; i++ {
			claim, ok, err := c.Claim(ctx, reg.WorkerID, 10*time.Second)
			if err != nil || !ok || claim.RunID != st.ID {
				t.Fatalf("claim %d: %v %v %+v", i, err, ok, claim)
			}
			if i == handBacks {
				failRun(t, c, reg.WorkerID, claim)
				break
			}
			res, err := c.Result(ctx, reg.WorkerID, fleet.ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID,
				Requeue: true, Error: "blob plane degraded"})
			if err != nil || !res.Accepted || res.Reason != "requeued" {
				t.Fatalf("hand-back %d: %v %+v", i, err, res)
			}
		}
		workers := s.fleet.Workers()
		if len(workers) != 1 {
			t.Fatalf("fleet lists %d workers", len(workers))
		}
		if w := workers[0]; w.Claims != handBacks+1 || w.Completed != 0 || w.Canceled != 0 || w.Failed != 1 {
			t.Fatalf("after %d hand-backs and one failure the fleet view reads claims %d, completed %d, failed %d, canceled %d",
				handBacks, w.Claims, w.Completed, w.Failed, w.Canceled)
		}
		return []observed{observe(t, s, st.ID)}
	})
}
