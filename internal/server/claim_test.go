package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/server/fleet"
)

// The claim path: a claim on an empty queue parks on the queue's wake
// channel and is woken by the enqueue itself — there is no polling.

// awaitParked waits until a claim has found the queue empty and taken its
// wake channel, which is what a claim parks on.
func awaitParked(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.queue.mu.Lock()
		parked := s.queue.wake != nil
		s.queue.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no claim ever parked")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// failRun ends a run leased to a test playing the worker by hand.
func failRun(t *testing.T, c fleet.Coordinator, workerID string, claim fleet.ClaimResponse) {
	t.Helper()
	res, err := c.Result(context.Background(), workerID, fleet.ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID, Error: "not executed"})
	if err != nil || !res.Accepted {
		t.Errorf("result for %s: %v %+v", claim.RunID, err, res)
	}
}

// TestClaimWakesOnEnqueue: a claim parked on an empty queue returns the run
// within a millisecond of the Submit that enqueued it (median of 200) — a
// method call away in-process, a long-poll reply away over HTTP. On a 2 ms
// poll ticker the median was a millisecond by construction.
func TestClaimWakesOnEnqueue(t *testing.T) {
	ctx := context.Background()
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			s := newCoordinator(t, Config{})
			c := tr.dial(t, s)
			reg, err := c.Register(ctx, fleet.RegisterRequest{Name: "by-hand", Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			type claimed struct {
				claim fleet.ClaimResponse
				at    time.Time
			}
			got := make(chan claimed, 1)
			var waits []time.Duration
			for i := 0; i < 200; i++ {
				go func() {
					claim, ok, err := c.Claim(ctx, reg.WorkerID, 10*time.Second)
					if err != nil || !ok {
						t.Errorf("parked claim: %v %v", err, ok)
					}
					got <- claimed{claim, time.Now()}
				}()
				awaitParked(t, s)
				submitted := time.Now()
				st, err := s.Submit("alice", quick(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				cl := <-got
				if cl.claim.RunID != st.ID {
					t.Fatalf("claimed %q, want %s", cl.claim.RunID, st.ID)
				}
				waits = append(waits, cl.at.Sub(submitted))
				failRun(t, c, reg.WorkerID, cl.claim)
			}
			sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
			if median := waits[len(waits)/2]; median > time.Millisecond {
				t.Fatalf("median submit→claim %s (p90 %s), want within 1ms", median, waits[len(waits)*9/10])
			}
		})
	}
}

// TestClaimNoLostWakeup: four claimers with a window far longer than the
// test against two thousand submissions racing their parks. Every run is
// claimed exactly once, and none is left queued under a parked claimer —
// nothing here would ever wake one but the push it missed.
func TestClaimNoLostWakeup(t *testing.T) {
	const claimers, runs = 4, 2000
	s := newCoordinator(t, Config{QueueDepth: 64, EventBuffer: 8})
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	reg, _ := s.Register(ctx, fleet.RegisterRequest{Slots: claimers})

	var mu sync.Mutex
	times := map[string]int{}
	var wg sync.WaitGroup
	for slot := 0; slot < claimers; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				claim, ok, err := s.Claim(ctx, reg.WorkerID, maxClaimWait)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					continue
				}
				mu.Lock()
				times[claim.RunID]++
				mu.Unlock()
				failRun(t, s, reg.WorkerID, claim)
			}
		}()
	}
	for i := 0; i < runs; i++ {
		for {
			_, err := s.Submit(fmt.Sprint("tenant-", i%7), quick(int64(i)))
			if err == nil {
				break
			}
			if api, ok := err.(*APIError); !ok || api.Code != http.StatusTooManyRequests {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Microsecond) // queue full: the claimers are behind
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(times)
		mu.Unlock()
		if n == runs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d runs claimed, %d still queued under parked claimers", n, runs, s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	wg.Wait()
	for id, n := range times {
		if n != 1 {
			t.Fatalf("run %s claimed %d times", id, n)
		}
	}
	if v := counter(t, s, "dyflow_server_runs_total"); v != runs {
		t.Fatalf("runs_total = %v, want %d", v, runs)
	}
}

// TestClaimWakesOnRequeueAndStop: a parked claim is also woken by a run
// coming back — its lease lapsed, its result named a missing blob — and by
// the coordinator stopping.
func TestClaimWakesOnRequeueAndStop(t *testing.T) {
	ctx := context.Background()
	s := newCoordinator(t, Config{LeaseTTL: 60 * time.Millisecond})
	reg, _ := s.Register(ctx, fleet.RegisterRequest{Slots: 2})
	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		claim fleet.ClaimResponse
		ok    bool
		took  time.Duration
	}
	claimRun := func() outcome {
		t0 := time.Now()
		claim, ok, err := s.Claim(ctx, reg.WorkerID, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		return outcome{claim, ok, time.Since(t0)}
	}
	first := claimRun()
	if !first.ok || first.claim.RunID != st.ID {
		t.Fatalf("first claim: %+v", first)
	}
	// Nobody heartbeats the first lease: it lapses and the run comes back.
	second := claimRun()
	if !second.ok || second.claim.RunID != st.ID || second.claim.LeaseID == first.claim.LeaseID || second.took > 2*time.Second {
		t.Fatalf("claim parked across a lease expiry: %+v", second)
	}
	parked := make(chan outcome, 1)
	go func() { parked <- claimRun() }()
	awaitParked(t, s)
	if res, _ := s.Result(ctx, reg.WorkerID, fleet.ResultRequest{RunID: st.ID, LeaseID: second.claim.LeaseID,
		Artifacts: map[string]string{"report": fleet.Digest([]byte("never uploaded"))}}); res.Accepted {
		t.Fatalf("missing-blob result: %+v", res)
	}
	third := <-parked
	if !third.ok || third.claim.RunID != st.ID || third.took > 2*time.Second {
		t.Fatalf("claim parked across a missing-blob requeue: %+v", third)
	}
	failRun(t, s, reg.WorkerID, third.claim) // nothing is left to come back

	go func() { parked <- claimRun() }()
	awaitParked(t, s)
	s.Close()
	if last := <-parked; last.ok || last.took > 2*time.Second {
		t.Fatalf("claim parked across the coordinator stopping: %+v", last)
	}
}

// TestClaimsInAdmissionOrder: the queue is one FIFO, so claims hand runs
// out in the order they were admitted whichever tenant submitted them, and
// a run that comes back — here handed back by its worker — goes out again
// ahead of everything admitted after it.
func TestClaimsInAdmissionOrder(t *testing.T) {
	ctx := context.Background()
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			s := newCoordinator(t, Config{})
			c := tr.dial(t, s)
			reg, err := c.Register(ctx, fleet.RegisterRequest{Name: "by-hand", Slots: 1})
			if err != nil {
				t.Fatal(err)
			}
			submit := func(i int) string {
				st, err := s.Submit(fmt.Sprint("tenant-", i%3), quick(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				return st.ID
			}
			claim := func() fleet.ClaimResponse {
				cl, ok, err := c.Claim(ctx, reg.WorkerID, 10*time.Second)
				if err != nil || !ok {
					t.Fatalf("claim: %v %v", err, ok)
				}
				return cl
			}
			var want []string
			for i := 0; i < 6; i++ {
				want = append(want, submit(i))
			}
			first := claim()
			if res, err := c.Result(ctx, reg.WorkerID, fleet.ResultRequest{RunID: first.RunID, LeaseID: first.LeaseID,
				Requeue: true, Error: "blob plane degraded"}); err != nil || !res.Accepted {
				t.Fatalf("handing %s back: %v %+v", first.RunID, err, res)
			}
			want = append(want, submit(6)) // admitted after the requeue: still last
			var got []string
			for range want {
				cl := claim()
				got = append(got, cl.RunID)
				failRun(t, c, reg.WorkerID, cl)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("claims came back %v, want admission order %v", got, want)
			}
		})
	}
}

// TestActiveRunsCountsEveryLease: dyflow_server_active_runs counts the runs
// that are executing, wherever — here on a worker across HTTP, under a
// coordinator that runs no worker of its own, where the gauge used to read 0
// for ever.
func TestActiveRunsCountsEveryLease(t *testing.T) {
	s, addr := startFleetCoordinator(t, 2*time.Second)
	claimed := make(chan string, 1)
	release := make(chan struct{})
	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, ClaimWait: 50 * time.Millisecond,
		OnClaim: func(id string) {
			claimed <- id
			<-release
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	if v := counter(t, s, "dyflow_server_active_runs"); v != 1 {
		t.Fatalf("active_runs = %v with one run leased, want 1", v)
	}
	close(release)
	if st = await(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}
	if v := counter(t, s, "dyflow_server_active_runs"); v != 0 {
		t.Fatalf("active_runs = %v with nothing leased, want 0", v)
	}
}

// TestLocalWorkerIsAFleetWorker: the worker `-workers N` starts is named
// like any other — `local` — in a run's status, record and events, is
// listed by GET /v1/fleet with its slots and counters, and has its
// dyflow_worker_* families in /metrics under its label.
func TestLocalWorkerIsAFleetWorker(t *testing.T) {
	s, err := New(Config{Workers: 2, LeaseTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := listen(t, s)
	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s, st.ID); st.State != StateDone || st.Worker != localWorkerID {
		t.Fatalf("run ended %+v, want done on %s", st, localWorkerID)
	}
	if it, ok := s.History().Get(st.ID); !ok || it.Meta.Worker != localWorkerID {
		t.Fatalf("record names worker %q", it.Meta.Worker)
	}
	for _, f := range tailSSE(t, addr, st.ID, "") {
		if (f.typ == "claimed" || f.typ == "running" || f.typ == "done") && f.ev.Worker != localWorkerID {
			t.Fatalf("%s event names worker %q", f.typ, f.ev.Worker)
		}
	}
	var view fleet.View
	if err := json.Unmarshal(httpGet(t, addr, "/v1/fleet"), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Workers) != 1 {
		t.Fatalf("fleet view lists %d workers, want the local one", len(view.Workers))
	}
	if w := view.Workers[0]; w.ID != localWorkerID || w.Slots != 2 || w.Claims != 1 || w.Completed != 1 || w.Active != 0 {
		t.Fatalf("fleet view of the local worker: %+v", w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(string(httpGet(t, addr, "/metrics")), `dyflow_worker_runs_total{outcome="done",worker="local"} 1`) {
		if time.Now().After(deadline) {
			t.Fatal("the local worker's families never appeared in /metrics")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
