package loadgen

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dyflow/internal/server"
	"dyflow/internal/server/fleet"
)

// startCoordinator serves a coordinator on a loopback port until the test
// ends.
func startCoordinator(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// join adds one worker to the fleet at o.Coordinator.
func join(t *testing.T, o fleet.WorkerOptions) *fleet.Worker {
	t.Helper()
	w, err := fleet.JoinFleet(o)
	if err != nil {
		t.Fatalf("join fleet: %v", err)
	}
	return w
}

// total is a coordinator family's value summed over its series.
func total(srv *server.Server, family string) float64 {
	v, _ := srv.Registry().Value(family)
	return v
}

// requireAllDone fails unless every job was driven to done and the run
// history lists each as its own run.
func requireAllDone(t *testing.T, res Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Jobs || res.Errors != 0 {
		t.Fatalf("completed %d of %d (%d errors)", res.Completed, res.Jobs, res.Errors)
	}
	if res.HistoryRuns != res.Jobs {
		t.Fatalf("GET /v1/runs lists %d runs after %d jobs", res.HistoryRuns, res.Jobs)
	}
}

// TestLoadAcceptance is the service's load acceptance run: 8 closed-loop
// clients spread over 4 tenants drive 32 submissions through a server with
// a tight per-tenant quota — every job completes, the tight seed space
// produces cache hits, and the quota enforcement is observable both as
// absorbed 429s and in the server's metrics.
func TestLoadAcceptance(t *testing.T) {
	srv, addr := startCoordinator(t, server.Config{Workers: 4, TenantQuota: 1, QueueDepth: 16})
	res, err := Run(Options{
		Addr:      addr,
		Clients:   8,
		Tenants:   4,
		PerClient: 4,
		Seeds:     6, // 32 jobs over 6 seeds: cache hits guaranteed
	})
	requireAllDone(t, res, err)
	if res.Cached == 0 {
		t.Fatal("no cache hits despite seed space smaller than job count")
	}
	// Two clients share each tenant under a quota of one in-flight run, so
	// quota 429s must have been absorbed along the way.
	if res.Rejected429 == 0 {
		t.Fatal("no backpressure observed despite tenant quota 1 and 2 clients per tenant")
	}
	if got := total(srv, "dyflow_server_quota_rejections_total"); got != float64(res.Rejected429) {
		t.Fatalf("the server counted %v quota rejections, the clients absorbed %d", got, res.Rejected429)
	}
	if got := total(srv, "dyflow_server_cache_hits_total"); got != float64(res.Cached) {
		t.Fatalf("the server counted %v cache hits, the clients saw %d", got, res.Cached)
	}
}

// TestLoadFleetWithWorkerKill is the fleet load acceptance run: the
// coordinator runs no worker of its own, three joined workers execute
// everything, and one of them is hard-killed while holding a lease. Every
// job still completes, the victim's run by lease expiry on a survivor.
func TestLoadFleetWithWorkerKill(t *testing.T) {
	srv, addr := startCoordinator(t, server.Config{
		Workers:     -1,
		TenantQuota: -1,
		QueueDepth:  64,
		LeaseTTL:    300 * time.Millisecond,
	})
	// Worker 0 is the victim: its first claim is held before execution
	// until the kill below has seen the lease lapse.
	claimed, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var workers []*fleet.Worker
	for i := 0; i < 3; i++ {
		o := fleet.WorkerOptions{Coordinator: addr, Name: fmt.Sprint("load-", i), ClaimWait: 100 * time.Millisecond}
		if i == 0 {
			o.OnClaim = func(string) {
				once.Do(func() {
					close(claimed)
					<-release
				})
			}
		}
		workers = append(workers, join(t, o))
	}
	for _, w := range workers[1:] {
		defer w.Stop()
	}
	drained, killed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(killed)
		select {
		case <-claimed:
		case <-drained:
			t.Error("the load drained without the victim ever claiming")
			workers[0].Stop()
			return
		}
		dead := make(chan struct{})
		go func() {
			workers[0].Kill() // returns once the held claim is released
			close(dead)
		}()
		for deadline := time.Now().Add(20 * time.Second); total(srv, "dyflow_server_fleet_lease_expiries_total") < 1; {
			if time.Now().After(deadline) {
				t.Error("the killed worker's lease never lapsed")
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(release)
		<-dead
	}()

	res, err := Run(Options{
		Addr:      addr,
		Clients:   8,
		PerClient: 4,
		Seeds:     6,
	})
	close(drained)
	<-killed
	requireAllDone(t, res, err)
	if got := total(srv, "dyflow_server_fleet_lease_expiries_total"); got < 1 {
		t.Fatalf("killed worker produced no lease expiry (%v)", got)
	}
	if got := total(srv, "dyflow_server_fleet_claims_total"); got < 1 {
		t.Fatalf("no fleet claims recorded (%v)", got)
	}
}

// TestLoadStream is the fleet closed loop observed live: two joined workers
// of two slots each execute everything while every client tails its run's
// SSE stream instead of polling, so a run counts only once its stream has
// ended in exactly one terminal event — cached runs included, whose stream
// is pure replay.
func TestLoadStream(t *testing.T) {
	_, addr := startCoordinator(t, server.Config{Workers: -1, TenantQuota: -1})
	for i := 0; i < 2; i++ {
		defer join(t, fleet.WorkerOptions{Coordinator: addr, Name: fmt.Sprint("stream-", i), Slots: 2,
			ClaimWait: 100 * time.Millisecond}).Stop()
	}
	res, err := Run(Options{
		Addr:      addr,
		Clients:   8,
		Tenants:   4,
		PerClient: 8,
		Seeds:     6,
		Stream:    true,
	})
	requireAllDone(t, res, err)
	if res.StreamedRuns != res.Jobs {
		t.Fatalf("%d of %d runs were tailed to a terminal event", res.StreamedRuns, res.Jobs)
	}
	// Even a cached run's stream carries two events (cache_hit, done).
	if res.EventsReceived <= res.Jobs {
		t.Fatalf("%d events over %d streams: the streams carried the terminal event alone", res.EventsReceived, res.Jobs)
	}
}
