// Command dyflow-serve runs the multi-tenant campaign service and its fleet
// workers:
//
//	dyflow-serve [-addr host:port] [-workers N] [-queue-depth N]
//	             [-tenant-quota N] [-ckpt-dir DIR] [-lease-ttl D]
//	             [-event-buffer N] [-runstore-segment-bytes N]
//	             [-retention-max-age D] [-retention-max-bytes N]
//	             [-retention-interval D]
//	dyflow-serve worker -join host:port [-name S] [-slots N]
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
// docs/SERVICE.md documents both modes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyflow/internal/server"
	"dyflow/internal/server/fleet"
)

func main() {
	run, args := serve, os.Args[1:]
	if len(args) > 0 && args[0] == "worker" {
		run, args = worker, args[1:]
	}
	if err := run(args); err != nil {
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
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: the modes are `dyflow-serve [flags]` and `dyflow-serve worker [flags]`", fs.Arg(0))
	}

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
