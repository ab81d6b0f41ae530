package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dyflow/internal/server"
	"dyflow/internal/server/faultnet"
	"dyflow/internal/server/fleet"
)

// ChaosNetOptions shapes a seeded network-fault sweep: for each seed, an
// in-process coordinator (no worker of its own) serves a fleet of workers whose
// every RPC crosses a faultnet transport derived from that seed, while
// clean-network clients drive jobs closed-loop and verify outcomes. The
// client plane is deliberately fault-free so its observations are ground
// truth; only the coordinator↔worker plane is hostile.
type ChaosNetOptions struct {
	// Seeds are the fault schedules to sweep (faultnet.PlanForSeed each).
	// Empty means seeds 0–4, one per emphasized fault mode.
	Seeds []int64
	// Workers is the fleet size per round. 0 means 3.
	Workers int
	// Clients and PerClient shape the closed-loop load per round.
	// 0 means 4 clients × 4 jobs.
	Clients   int
	PerClient int
	// LeaseTTL is the coordinator's lease TTL during the seeded rounds —
	// the recovery horizon for claims whose reply was lost. 0 means 2s.
	LeaseTTL time.Duration
	// Partition is the mid-run partition scenario's duration (the worker
	// is cut off right after claiming, must finish the run and deliver
	// the result after healing, without a requeue). 0 means 10s;
	// negative skips the scenario.
	Partition time.Duration
	// PartitionTTL is the lease TTL for the partition scenario; it must
	// exceed Partition for the no-requeue assertion to hold. 0 means 3×
	// Partition.
	PartitionTTL time.Duration
	// MinJobsPerSec is the per-round throughput floor. 0 means 0.5 —
	// deliberately lenient: a lost claim reply parks its run for a full
	// lease TTL, and correctness under faults is the point, but a plane
	// that collapses to near-zero progress must still fail the sweep.
	MinJobsPerSec float64
	// Scenario is the job scenario. "" means the loadgen default.
	Scenario string
}

// ChaosNetRound is one seed's outcome.
type ChaosNetRound struct {
	Seed        int64   `json:"seed"`
	Jobs        int     `json:"jobs"`
	Completed   int     `json:"completed"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	// Faults actually injected, by mode, summed across the fleet.
	Faults map[string]int64 `json:"faults"`

	// RunsTotal is dyflow_server_runs_total summed over states: with
	// distinct seeds (no cache hits) it must equal Jobs exactly — every
	// run reaching exactly one terminal state, no double completions.
	RunsTotal float64 `json:"runs_total"`

	RPCRetries    float64 `json:"worker_rpc_retries"`
	LeaseExpiries float64 `json:"lease_expiries"`
	StaleResults  float64 `json:"stale_results"`
	DupResults    float64 `json:"duplicate_results"`
	SpanDrops     float64 `json:"worker_span_drops"`
}

// ChaosNetPartition is the mid-run partition scenario's outcome.
type ChaosNetPartition struct {
	PartitionSeconds float64 `json:"partition_seconds"`
	LeaseTTLSeconds  float64 `json:"lease_ttl_seconds"`
	WallSeconds      float64 `json:"wall_seconds"`
	State            string  `json:"state"`
	LeaseExpiries    float64 `json:"lease_expiries"`
	RunsTotal        float64 `json:"runs_total"`
}

// ChaosNetResult is the sweep's JSON-shaped outcome (BENCH_chaosnet.json).
type ChaosNetResult struct {
	Rounds    []ChaosNetRound    `json:"rounds"`
	Partition *ChaosNetPartition `json:"partition,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Pass      bool               `json:"pass"`
}

// ChaosNet runs the sweep. The returned result is always populated as
// far as the sweep got; the error is non-nil when any assertion failed.
func ChaosNet(o ChaosNetOptions) (*ChaosNetResult, error) {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{0, 1, 2, 3, 4}
	}
	if o.Workers == 0 {
		o.Workers = 3
	}
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.PerClient == 0 {
		o.PerClient = 4
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = 2 * time.Second
	}
	if o.Partition == 0 {
		o.Partition = 10 * time.Second
	}
	if o.PartitionTTL == 0 {
		o.PartitionTTL = 3 * o.Partition
	}
	if o.MinJobsPerSec == 0 {
		o.MinJobsPerSec = 0.5
	}

	res := &ChaosNetResult{}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	for _, seed := range o.Seeds {
		round, err := chaosRound(o, seed)
		res.Rounds = append(res.Rounds, round)
		if err != nil {
			fail("seed %d: %v", seed, err)
			continue
		}
		if round.Completed != round.Jobs {
			fail("seed %d: %d of %d jobs completed (lost runs)", seed, round.Completed, round.Jobs)
		}
		if round.RunsTotal != float64(round.Jobs) {
			fail("seed %d: runs_total = %.0f for %d jobs (terminal transitions must be exactly one per run)",
				seed, round.RunsTotal, round.Jobs)
		}
		if round.JobsPerSec < o.MinJobsPerSec {
			fail("seed %d: %.2f jobs/s under the %.2f floor", seed, round.JobsPerSec, o.MinJobsPerSec)
		}
	}

	if o.Partition > 0 {
		part, err := chaosPartition(o)
		res.Partition = &part
		switch {
		case err != nil:
			fail("partition: %v", err)
		case part.State != string(server.StateDone):
			fail("partition: run ended %s, want done", part.State)
		case part.LeaseExpiries != 0:
			fail("partition: %.0f lease expiries across a %.0fs partition under a %.0fs TTL (run must survive without requeue)",
				part.LeaseExpiries, part.PartitionSeconds, part.LeaseTTLSeconds)
		case part.RunsTotal != 1:
			fail("partition: runs_total = %.0f, want exactly 1", part.RunsTotal)
		case part.WallSeconds < part.PartitionSeconds:
			fail("partition: completed in %.1fs, inside the %.0fs partition — the fault never bit", part.WallSeconds, part.PartitionSeconds)
		}
	}

	res.Pass = len(res.Failures) == 0
	if !res.Pass {
		return res, fmt.Errorf("chaos-net: %d assertion(s) failed: %s", len(res.Failures), res.Failures[0])
	}
	return res, nil
}

// chaosRound drives one seed: coordinator up, faulted fleet up, clean
// clients through, everything down, counters scraped.
func chaosRound(o ChaosNetOptions, seed int64) (ChaosNetRound, error) {
	round := ChaosNetRound{Seed: seed, Jobs: o.Clients * o.PerClient, Faults: map[string]int64{}}
	srv, err := server.New(server.Config{Workers: -1, QueueDepth: 512, TenantQuota: -1, LeaseTTL: o.LeaseTTL})
	if err != nil {
		return round, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return round, err
	}

	workers := make([]*fleet.Worker, 0, o.Workers)
	transports := make([]*faultnet.Transport, 0, o.Workers)
	for i := 0; i < o.Workers; i++ {
		plan := faultnet.PlanForSeed(seed)
		plan.Seed += int64(i) * 1000003 // decorrelate the fleet, stay deterministic
		tr := faultnet.New(plan, nil)
		w, err := fleet.JoinFleet(fleet.WorkerOptions{
			Coordinator:  addr,
			Name:         fmt.Sprintf("chaos-s%d-w%d", seed, i),
			ClaimWait:    50 * time.Millisecond,
			CallTimeout:  2 * time.Second,
			RegisterWait: 30 * time.Second,
			BackoffSeed:  seed*101 + int64(i) + 1,
			Client:       &http.Client{Timeout: 10 * time.Second, Transport: tr},
		})
		if err != nil {
			for _, started := range workers {
				started.Stop()
			}
			return round, fmt.Errorf("join fleet: %w", err)
		}
		workers = append(workers, w)
		transports = append(transports, tr)
	}

	start := time.Now()
	lres, lerr := Run(Options{
		Addr:      addr,
		Clients:   o.Clients,
		PerClient: o.PerClient,
		Scenario:  o.Scenario,
		PollEvery: 2 * time.Millisecond,
	})
	round.WallSeconds = time.Since(start).Seconds()
	for _, w := range workers {
		w.Stop()
	}
	if lres != nil {
		round.Completed = lres.Completed
		if round.WallSeconds > 0 {
			round.JobsPerSec = float64(round.Completed) / round.WallSeconds
		}
	}
	for _, tr := range transports {
		for mode, n := range tr.Counts() {
			round.Faults[string(mode)] += n
		}
	}
	for _, w := range workers {
		v, _ := w.Registry().Value("dyflow_worker_rpc_retries_total")
		round.RPCRetries += v
		d, _ := w.Registry().Value("dyflow_worker_span_drops_total")
		round.SpanDrops += d
	}
	round.RunsTotal, _ = srv.Registry().Value("dyflow_server_runs_total")
	round.LeaseExpiries, _ = srv.Registry().Value("dyflow_server_fleet_lease_expiries_total")
	round.StaleResults, _ = srv.Registry().Value("dyflow_server_fleet_stale_results_total")
	round.DupResults, _ = srv.Registry().Value("dyflow_server_fleet_duplicate_results_total")
	return round, lerr
}

// chaosPartition is the directional-partition drill: a worker claims a
// run, is immediately cut off from the coordinator (outbound partition —
// heartbeats, blob PUTs, and result POSTs all fail), keeps executing
// because its lease cannot have lapsed yet, and delivers the result once
// the partition heals. With TTL > partition the coordinator must never
// requeue: exactly one claim, zero lease expiries, one terminal state.
func chaosPartition(o ChaosNetOptions) (ChaosNetPartition, error) {
	part := ChaosNetPartition{
		PartitionSeconds: o.Partition.Seconds(),
		LeaseTTLSeconds:  o.PartitionTTL.Seconds(),
	}
	srv, err := server.New(server.Config{Workers: -1, LeaseTTL: o.PartitionTTL})
	if err != nil {
		return part, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return part, err
	}

	tr := faultnet.New(faultnet.Plan{Seed: 1}, nil) // clean until the partition opens
	var once sync.Once
	w, err := fleet.JoinFleet(fleet.WorkerOptions{
		Coordinator: addr,
		Name:        "chaos-partition",
		ClaimWait:   50 * time.Millisecond,
		CallTimeout: 2 * time.Second,
		BackoffSeed: 1,
		Client:      &http.Client{Timeout: 10 * time.Second, Transport: tr},
		OnClaim: func(string) {
			once.Do(func() { tr.Partition(o.Partition, faultnet.Outbound) })
		},
	})
	if err != nil {
		return part, fmt.Errorf("join fleet: %w", err)
	}

	start := time.Now()
	_, lerr := Run(Options{
		Addr:      addr,
		Clients:   1,
		PerClient: 1,
		Scenario:  o.Scenario,
		PollEvery: 10 * time.Millisecond,
	})
	part.WallSeconds = time.Since(start).Seconds()
	w.Stop()

	part.LeaseExpiries, _ = srv.Registry().Value("dyflow_server_fleet_lease_expiries_total")
	part.RunsTotal, _ = srv.Registry().Value("dyflow_server_runs_total")
	part.State = "unknown"
	if runs := srv.Runs(); len(runs) == 1 {
		part.State = string(runs[0].State)
	}
	return part, lerr
}
