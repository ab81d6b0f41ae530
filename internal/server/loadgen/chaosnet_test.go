package loadgen

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dyflow/internal/server"
	"dyflow/internal/server/faultnet"
	"dyflow/internal/server/fleet"
)

// The network-chaos drills (`make chaos-net`): a coordinator that runs no
// worker of its own serves a fleet whose every RPC crosses a faultnet
// transport, while clean-network clients drive jobs closed-loop. The client
// plane is deliberately fault-free so its observations are ground truth;
// only the coordinator↔worker plane is hostile.

// faultedWorker joins a worker whose coordinator calls all cross tr.
func faultedWorker(t *testing.T, addr, name string, tr *faultnet.Transport, o fleet.WorkerOptions) *fleet.Worker {
	t.Helper()
	o.Coordinator, o.Name = addr, name
	o.ClaimWait = 50 * time.Millisecond
	o.CallTimeout = 2 * time.Second
	o.Client = &http.Client{Timeout: 10 * time.Second, Transport: tr}
	return join(t, o)
}

// TestChaosNetSweep sweeps the five seeded fault schedules — each
// emphasizing one mode: latency, drops, 5xx, truncation, lost replies —
// over a 3-worker fleet driving 16 distinct jobs. Per seed: no run is lost,
// every run reaches exactly one terminal state, and throughput clears a
// floor. The floor is deliberately lenient — a lost claim reply parks its
// run for a full lease TTL, and correctness under faults is the point —
// but a plane that collapses to near-zero progress must still fail.
func TestChaosNetSweep(t *testing.T) {
	const (
		workers       = 3
		clients       = 4
		perClient     = 4
		leaseTTL      = 2 * time.Second // the recovery horizon of a claim whose reply was lost
		minJobsPerSec = 0.5
	)
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel() // a round is mostly waiting: backoffs, and a lease TTL per lost claim reply
			srv, addr := startCoordinator(t, server.Config{Workers: -1, QueueDepth: 512, TenantQuota: -1, LeaseTTL: leaseTTL})
			var fleetWorkers []*fleet.Worker
			var transports []*faultnet.Transport
			for i := 0; i < workers; i++ {
				plan := faultnet.PlanForSeed(seed)
				plan.Seed += int64(i) * 1000003 // decorrelate the fleet, stay deterministic
				tr := faultnet.New(plan, nil)
				fleetWorkers = append(fleetWorkers, faultedWorker(t, addr, fmt.Sprintf("chaos-s%d-w%d", seed, i), tr,
					fleet.WorkerOptions{RegisterWait: 30 * time.Second, BackoffSeed: seed*101 + int64(i) + 1}))
				transports = append(transports, tr)
			}

			start := time.Now()
			res, err := Run(Options{Addr: addr, Clients: clients, PerClient: perClient})
			wall := time.Since(start)
			for _, w := range fleetWorkers {
				w.Stop()
			}
			requireAllDone(t, res, err)

			// With distinct seeds (no cache hits) the terminal transitions
			// must number exactly the jobs: no double completions.
			if got := total(srv, "dyflow_server_runs_total"); got != float64(res.Jobs) {
				t.Fatalf("runs_total = %v for %d jobs (terminal transitions must be exactly one per run)", got, res.Jobs)
			}
			if rate := float64(res.Completed) / wall.Seconds(); rate < minJobsPerSec {
				t.Fatalf("%.2f jobs/s under the %.2f floor", rate, minJobsPerSec)
			}
			// A silently clean network would pass every assertion above
			// while testing nothing.
			var faults int64
			for _, tr := range transports {
				for _, n := range tr.Counts() {
					faults += n
				}
			}
			var retries float64
			for _, w := range fleetWorkers {
				v, _ := w.Registry().Value("dyflow_worker_rpc_retries_total")
				retries += v
			}
			if faults == 0 || retries == 0 {
				t.Fatalf("%d faults injected, %v worker RPC retries: the schedule never bit", faults, retries)
			}
			t.Logf("%d jobs in %.2fs — %d faults, %v rpc retries, %v lease expiries, %v stale and %v duplicate results",
				res.Jobs, wall.Seconds(), faults, retries,
				total(srv, "dyflow_server_fleet_lease_expiries_total"),
				total(srv, "dyflow_server_fleet_stale_results_total"),
				total(srv, "dyflow_server_fleet_duplicate_results_total"))
		})
	}
}

// TestChaosNetPartition is the directional-partition drill: a worker claims
// a run, is immediately cut off from the coordinator (outbound partition —
// heartbeats, blob PUTs, and result POSTs all fail), keeps executing
// because its lease cannot have lapsed yet, and delivers the result once
// the partition heals. With TTL > partition the coordinator must never
// requeue: zero lease expiries, one terminal state.
func TestChaosNetPartition(t *testing.T) {
	const (
		partition = time.Second
		leaseTTL  = 5 * time.Second
	)
	srv, addr := startCoordinator(t, server.Config{Workers: -1, LeaseTTL: leaseTTL})
	tr := faultnet.New(faultnet.Plan{Seed: 1}, nil) // clean until the partition opens
	var once sync.Once
	w := faultedWorker(t, addr, "chaos-partition", tr, fleet.WorkerOptions{
		BackoffSeed: 1,
		OnClaim: func(string) {
			once.Do(func() { tr.Partition(partition, faultnet.Outbound) })
		},
	})

	start := time.Now()
	res, err := Run(Options{Addr: addr, Clients: 1, PerClient: 1})
	wall := time.Since(start)
	w.Stop()
	requireAllDone(t, res, err)
	if wall < partition {
		t.Fatalf("completed in %s, inside the %s partition — the fault never bit", wall, partition)
	}
	if got := total(srv, "dyflow_server_fleet_lease_expiries_total"); got != 0 {
		t.Fatalf("%v lease expiries across a %s partition under a %s TTL (run must survive without requeue)", got, partition, leaseTTL)
	}
	if got := total(srv, "dyflow_server_runs_total"); got != 1 {
		t.Fatalf("runs_total = %v, want exactly 1", got)
	}
}
