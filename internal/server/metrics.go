package server

import "dyflow/internal/obs"

// metrics is the campaign service's own family set (the `dyflow_server_*`
// catalog in docs/OBSERVABILITY.md). It lives in the server's registry,
// which is strictly separate from the per-run world registries — each job
// simulates into a private obs.Registry that ships as the run's "metrics"
// artifact, so concurrent campaigns never share series.
type metrics struct {
	submissions  *obs.CounterVec // {tenant} accepted submissions
	cacheHits    *obs.CounterVec // {tenant} submissions served from the result cache
	quotaRejects *obs.CounterVec // {tenant} 429s from the per-tenant quota
	queueRejects *obs.Counter    // 429s from queue backpressure
	queueDepth   *obs.Gauge      // queued runs
	active       *obs.Gauge      // runs executing under a lease, on any worker
	runsTotal    *obs.CounterVec // {state} terminal transitions
	runSeconds   *obs.Histogram  // wall-clock execution time (non-cached)
	requeued     *obs.Counter    // pending runs resumed after a restart
	httpReqs     *obs.CounterVec // {route}
	dupResults   *obs.Counter    // retransmitted results deduplicated by lease ID
	gcBlobs      *obs.Counter    // blobs swept by retention GC
	readErrs     *obs.Counter    // history documents that could not be read back or decoded
	illegal      *obs.CounterVec // {from,to} transitions the lifecycle table refused
	// The lease's own counters.
	fleetClaims     *obs.Counter
	fleetHeartbeats *obs.Counter
	leaseExpiries   *obs.Counter
	fleetResults    *obs.Counter
	staleResults    *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		submissions: reg.Counter("dyflow_server_submissions_total",
			"Accepted campaign submissions.", "tenant"),
		cacheHits: reg.Counter("dyflow_server_cache_hits_total",
			"Submissions served from the deterministic result cache without re-simulating.", "tenant"),
		quotaRejects: reg.Counter("dyflow_server_quota_rejections_total",
			"Submissions rejected by the per-tenant in-flight quota.", "tenant"),
		queueRejects: reg.Counter("dyflow_server_queue_rejections_total",
			"Submissions rejected because the run queue was full.").With(),
		queueDepth: reg.Gauge("dyflow_server_queue_depth",
			"Runs waiting in the queue for a claim.").With(),
		active: reg.Gauge("dyflow_server_active_runs",
			"Runs currently executing under a lease, on any worker.").With(),
		runsTotal: reg.Counter("dyflow_server_runs_total",
			"Runs reaching a terminal state.", "state"),
		runSeconds: reg.Histogram("dyflow_server_run_duration_seconds",
			"Wall-clock execution time of non-cached runs.", nil).With(),
		requeued: reg.Counter("dyflow_server_restore_requeued_total",
			"Pending runs requeued from the run-history store after a restart.").With(),
		httpReqs: reg.Counter("dyflow_server_http_requests_total",
			"API requests by route.", "route"),
		dupResults: reg.Counter("dyflow_server_fleet_duplicate_results_total",
			"Result uploads retransmitted after a lost acknowledgement, deduplicated by lease ID.").With(),
		gcBlobs: reg.Counter("dyflow_runstore_gc_blobs_total",
			"Artifact blobs swept because no live history record references them.").With(),
		readErrs: reg.Counter("dyflow_runstore_read_errors_total",
			"Run-history documents that could not be read back or decoded; the run was served from its index entry.").With(),
		illegal: reg.Counter("dyflow_server_illegal_transitions_total",
			"Run state transitions refused because the lifecycle table has no such edge: each one is a bug.", "from", "to"),
		fleetClaims: reg.Counter("dyflow_server_fleet_claims_total",
			"Runs claimed by fleet workers.").With(),
		fleetHeartbeats: reg.Counter("dyflow_server_fleet_heartbeats_total",
			"Lease heartbeats accepted from fleet workers.").With(),
		leaseExpiries: reg.Counter("dyflow_server_fleet_lease_expiries_total",
			"Leases that lapsed without a result, requeueing the run.").With(),
		fleetResults: reg.Counter("dyflow_server_fleet_results_total",
			"Results accepted from fleet workers under a valid lease.").With(),
		staleResults: reg.Counter("dyflow_server_fleet_stale_results_total",
			"Result uploads ignored because the lease was no longer current.").With(),
	}
}
