// Command dyflow-serve runs the multi-tenant campaign service, its fleet
// workers, and its load-test harness:
//
//	dyflow-serve [-addr host:port] [-workers N] [-queue-depth N]
//	             [-tenant-quota N] [-ckpt-dir DIR] [-lease-ttl D]
//	             [-runstore-segment-bytes N] [-retention-max-age D]
//	             [-retention-max-bytes N] [-retention-interval D]
//	dyflow-serve worker -join host:port [-name S] [-slots N]
//	dyflow-serve loadtest [-addr host:port] [-clients N] [-per-client N]
//	             [-seeds N] [-scenario S] [-out BENCH_serve.json]
//	             [-fleet N] [-worker-slots N] [-kill-worker] [-stream] ...
//	dyflow-serve chaosnet [-seeds N] [-workers N] [-clients N] [-per-client N]
//	             [-lease-ttl D] [-partition D] [-partition-ttl D]
//	             [-min-jobs-per-sec F] [-out BENCH_chaosnet.json]
//
// The service accepts campaign submissions over HTTP (POST /v1/runs),
// leases them to workers — -workers N is one with N slots inside this
// process, listed as `local` — each slot a deterministic simulation, and
// serves status, artifacts, and its own /metrics. With -ckpt-dir it
// appends every run-state transition to the run-history log before
// acknowledging it, so a killed server resumes pending work on restart.
// -addr host:0 binds a free port; the bound address is printed.
// SIGINT/SIGTERM shut down gracefully: HTTP drains and running
// simulations abort back to queued (never canceled) for the next process.
//
// worker joins a coordinator's fleet from another process: the same worker
// as -workers N, claiming queued runs under leases, executing them and
// uploading artifacts to the coordinator's blob store, but over HTTP. Run
// the coordinator with -workers -1 to make the fleet do all the executing.
//
// loadtest drives closed-loop load — by default against an embedded
// in-process server so one command measures the whole stack — and writes
// throughput and latency percentiles as JSON. -fleet N spawns N in-process
// fleet workers (the coordinator then runs no worker of its own), and
// -kill-worker hard-kills one mid-lease to drill lease-expiry recovery.
//
// chaosnet is the network-chaos drill (`make chaos-net`): it sweeps
// seeded fault schedules — latency spikes, dropped connections, injected
// 5xx, truncated responses, lost replies — over the coordinator↔worker
// RPC plane and asserts zero lost runs, exactly one terminal state per
// run, and a throughput floor, then proves a mid-run directional
// partition shorter than the lease TTL completes without a requeue.
// docs/SERVICE.md documents all modes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyflow/internal/server"
	"dyflow/internal/server/fleet"
	"dyflow/internal/server/loadgen"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "loadtest":
			if err := loadtest(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "worker":
			if err := worker(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		case "chaosnet":
			if err := chaosnet(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	if err := serve(os.Args[1:]); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dyflow-serve:", err)
	os.Exit(1)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("dyflow-serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address (host:0 picks a free port)")
	workers := fs.Int("workers", 0, "slots of the in-process worker (0 = GOMAXPROCS, negative = none: joined workers only)")
	queueDepth := fs.Int("queue-depth", 0, "bound on queued runs before 429 backpressure (0 = 64)")
	tenantQuota := fs.Int("tenant-quota", 0, "per-tenant in-flight run cap (0 = 8, negative = unlimited)")
	ckptDir := fs.String("ckpt-dir", "", "state directory: persist every run's state (runs/) and artifacts (blobs/) across restarts")
	leaseTTL := fs.Duration("lease-ttl", 0, "fleet lease TTL before an unheartbeated run is requeued (0 = 10s)")
	eventBuffer := fs.Int("event-buffer", 0, "per-run event ring size for GET /v1/runs/{id}/events (0 = 256)")
	segBytes := fs.Int64("runstore-segment-bytes", 0, "run-history segment rotation threshold in bytes (0 = 4MiB)")
	retMaxAge := fs.Duration("retention-max-age", 0, "delete terminal runs older than this from the history store (0 = keep forever)")
	retMaxBytes := fs.Int64("retention-max-bytes", 0, "per-tenant artifact byte budget; oldest terminal runs beyond it are deleted (0 = unlimited)")
	retInterval := fs.Duration("retention-interval", 0, "how often the retention sweep runs (0 = 1m)")
	fs.Parse(args)

	srv, err := server.New(server.Config{
		Workers:              *workers,
		QueueDepth:           *queueDepth,
		TenantQuota:          *tenantQuota,
		CkptDir:              *ckptDir,
		LeaseTTL:             *leaseTTL,
		EventBuffer:          *eventBuffer,
		RunstoreSegmentBytes: *segBytes,
		RetentionMaxAge:      *retMaxAge,
		RetentionMaxBytes:    *retMaxBytes,
		RetentionInterval:    *retInterval,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("dyflow-serve: listening on http://%s (POST /v1/runs, GET /v1/runs, /metrics, /healthz)\n", bound)
	if *ckptDir != "" {
		fmt.Printf("dyflow-serve: persisting run state to %s\n", *ckptDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Println("dyflow-serve: shutting down (draining HTTP, requeueing running work)")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}

// worker joins a coordinator's fleet and executes claimed runs until
// SIGINT/SIGTERM, which drains in-flight work before exiting.
func worker(args []string) error {
	fs := flag.NewFlagSet("dyflow-serve worker", flag.ExitOnError)
	join := fs.String("join", "", "coordinator address (host:port) to register with (required)")
	name := fs.String("name", "", "worker name in the coordinator's fleet view (default the assigned ID)")
	slots := fs.Int("slots", 1, "runs executed concurrently")
	fs.Parse(args)
	if *join == "" {
		return fmt.Errorf("worker: -join host:port is required")
	}

	w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: *join, Name: *name, Slots: *slots})
	if err != nil {
		return err
	}
	fmt.Printf("dyflow-serve: worker %s joined fleet at %s (%d slots)\n", w.ID(), *join, *slots)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Println("dyflow-serve: worker draining (finishing claimed runs)")
	w.Stop()
	fmt.Printf("dyflow-serve: worker %s done (%d runs completed)\n", w.ID(), w.Completed())
	return nil
}

// chaosnet runs the seeded network-fault sweep: per seed, an embedded
// coordinator plus a fleet whose every RPC crosses a fault-injecting
// transport, driven by clean-network clients asserting zero lost runs,
// exactly one terminal state per run, and a throughput floor — then a
// directional mid-run partition the lease TTL must carry the run across.
func chaosnet(args []string) error {
	fs := flag.NewFlagSet("dyflow-serve chaosnet", flag.ExitOnError)
	seedCount := fs.Int("seeds", 5, "fault schedules swept (seeds 0..N-1, each emphasizing a different mode)")
	workers := fs.Int("workers", 3, "fleet workers per round")
	clients := fs.Int("clients", 4, "concurrent closed-loop clients per round")
	perClient := fs.Int("per-client", 4, "jobs each client drives to completion")
	leaseTTL := fs.Duration("lease-ttl", 2*time.Second, "coordinator lease TTL during seeded rounds")
	partition := fs.Duration("partition", 10*time.Second, "mid-run partition duration (negative skips the scenario)")
	partitionTTL := fs.Duration("partition-ttl", 30*time.Second, "lease TTL for the partition scenario (must exceed -partition)")
	minJPS := fs.Float64("min-jobs-per-sec", 0.5, "per-round throughput floor")
	scenario := fs.String("scenario", "quickstart", "job scenario to submit")
	out := fs.String("out", "", "write the sweep result JSON here (default stdout only)")
	fs.Parse(args)

	seeds := make([]int64, *seedCount)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	fmt.Printf("chaosnet: sweeping %d fault seeds over %d-worker fleets (%d clients × %d jobs, lease TTL %s), then a %s partition under a %s TTL\n",
		len(seeds), *workers, *clients, *perClient, *leaseTTL, *partition, *partitionTTL)

	res, err := loadgen.ChaosNet(loadgen.ChaosNetOptions{
		Seeds:         seeds,
		Workers:       *workers,
		Clients:       *clients,
		PerClient:     *perClient,
		LeaseTTL:      *leaseTTL,
		Partition:     *partition,
		PartitionTTL:  *partitionTTL,
		MinJobsPerSec: *minJPS,
		Scenario:      *scenario,
	})
	if res != nil {
		for _, r := range res.Rounds {
			var faults int64
			for _, n := range r.Faults {
				faults += n
			}
			fmt.Printf("chaosnet: seed %d: %d/%d jobs in %.2fs (%.1f jobs/s) — %d faults, %.0f rpc retries, %.0f expiries, %.0f stale, %.0f duplicates\n",
				r.Seed, r.Completed, r.Jobs, r.WallSeconds, r.JobsPerSec,
				faults, r.RPCRetries, r.LeaseExpiries, r.StaleResults, r.DupResults)
		}
		if p := res.Partition; p != nil {
			fmt.Printf("chaosnet: %.0fs partition under %.0fs TTL: run %s in %.1fs with %.0f lease expiries\n",
				p.PartitionSeconds, p.LeaseTTLSeconds, p.State, p.WallSeconds, p.LeaseExpiries)
		}
		for _, f := range res.Failures {
			fmt.Printf("chaosnet: FAIL: %s\n", f)
		}
		if *out != "" {
			data, merr := json.MarshalIndent(res, "", "  ")
			if merr != nil {
				return merr
			}
			if werr := os.WriteFile(*out, append(data, '\n'), 0o644); werr != nil {
				return werr
			}
			fmt.Printf("chaosnet: wrote %s\n", *out)
		}
		if res.Pass {
			fmt.Println("chaosnet: PASS")
		}
	}
	return err
}

func loadtest(args []string) error {
	fs := flag.NewFlagSet("dyflow-serve loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "target server address; empty = run an embedded server")
	clients := fs.Int("clients", 4, "concurrent closed-loop clients (one tenant each unless -tenants)")
	tenants := fs.Int("tenants", 0, "spread clients over this many tenants (0 = one per client)")
	perClient := fs.Int("per-client", 8, "jobs each client drives to completion")
	seeds := fs.Int("seeds", 0, "seed-space size (< clients*per-client forces cache hits; 0 = all distinct)")
	scenario := fs.String("scenario", "quickstart", "job scenario to submit")
	machine := fs.String("machine", "", "job machine (empty = server default)")
	workers := fs.Int("workers", 0, "embedded server: worker-pool size (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "embedded server: queue bound (0 = 64)")
	tenantQuota := fs.Int("tenant-quota", 0, "embedded server: per-tenant quota (0 = 8)")
	leaseTTL := fs.Duration("lease-ttl", 0, "embedded server: fleet lease TTL (0 = 10s)")
	fleetN := fs.Int("fleet", 0, "spawn this many fleet workers over loopback HTTP (the embedded server then runs none of its own)")
	workerSlots := fs.Int("worker-slots", 0, "concurrent runs per fleet worker (0 = 1)")
	killWorker := fs.Bool("kill-worker", false, "hard-kill one fleet worker mid-lease (chaos drill)")
	stream := fs.Bool("stream", false, "tail each run's SSE event stream instead of polling status")
	out := fs.String("out", "", "write the result JSON here (default stdout only)")
	fs.Parse(args)

	target := *addr
	var srv *server.Server
	if target == "" {
		embeddedWorkers := *workers
		if *fleetN > 0 {
			// The fleet does all the executing; the embedded coordinator
			// runs no worker of its own.
			embeddedWorkers = -1
		}
		var err error
		srv, err = server.New(server.Config{
			Workers:     embeddedWorkers,
			QueueDepth:  *queueDepth,
			TenantQuota: *tenantQuota,
			LeaseTTL:    *leaseTTL,
		})
		if err != nil {
			return err
		}
		if target, err = srv.Start("127.0.0.1:0"); err != nil {
			return err
		}
		fmt.Printf("dyflow-serve: loadtest against embedded server on %s\n", target)
	}

	res, err := loadgen.Run(loadgen.Options{
		Addr:         target,
		Clients:      *clients,
		Tenants:      *tenants,
		PerClient:    *perClient,
		Seeds:        *seeds,
		Scenario:     *scenario,
		Machine:      *machine,
		FleetWorkers: *fleetN,
		WorkerSlots:  *workerSlots,
		KillWorker:   *killWorker,
		Stream:       *stream,
	})
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if serr := srv.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	if res != nil {
		fmt.Printf("loadtest: %d clients × %d jobs: %d done (%d cached, %d backpressured) in %.2fs — %.1f jobs/s, p50 %.3fs p90 %.3fs p99 %.3fs\n",
			res.Clients, *perClient, res.Completed, res.Cached, res.Rejected429,
			res.WallSeconds, res.JobsPerSec, res.LatencyP50, res.LatencyP90, res.LatencyP99)
		if res.Mode == "fleet" {
			fmt.Printf("loadtest: fleet of %d workers (killed: %v): %.0f claims, %.0f lease expiries, %.0f stale results\n",
				res.FleetWorkers, res.WorkerKilled, res.FleetClaims, res.LeaseExpiries, res.StaleResults)
		}
		if res.StreamedRuns > 0 {
			fmt.Printf("loadtest: streamed %d runs over SSE: %d events, terminal-event p50 %.3fs p90 %.3fs max %.3fs\n",
				res.StreamedRuns, res.EventsReceived, res.StreamP50, res.StreamP90, res.StreamMax)
		}
		if *out != "" {
			data, merr := json.MarshalIndent(res, "", "  ")
			if merr != nil {
				return merr
			}
			if werr := os.WriteFile(*out, append(data, '\n'), 0o644); werr != nil {
				return werr
			}
			fmt.Printf("loadtest: wrote %s\n", *out)
		}
	}
	return err
}
