package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"dyflow/internal/obs"
	"dyflow/internal/server"
)

const (
	scrapeProbes    = 20
	listProbes      = 30
	analyticsProbes = 5
	fleetProbeRuns  = 60 // at most, through the fleet probe stack
)

// sumMetric adds up every series of one family in a registry snapshot.
func sumMetric(snap obs.Snapshot, name string) float64 {
	var v float64
	for _, m := range snap.Metrics {
		if m.Name == name {
			for _, s := range m.Series {
				v += s.Value
			}
		}
	}
	return v
}

// spanSeconds lists the durations of every span called name.
func spanSeconds(spans []span, name string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// runTraced is the per-layer pass. On the workload's own stack it runs a
// quarter of the job list untraced (the control), then another quarter
// with the bench recording spans around every call, and compares the CPU
// per run of the two (trace_overhead_share). It then probes each layer on
// its own. Layers the workload's own stack does not have — fleet RPCs,
// on-disk state — are measured on a probe stack (durable coordinator + 2
// fleet workers) fed the same jobs, so every metric is measured on every
// workload.
func runTraced(w workload, seed int64, tmp, traceFile string) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed}
	rec := &recorder{}
	timer := newRPCTimer(rec)
	p := &pass{w: w, plan: makePlan(w, seed), tmp: tmp, rpc: timer.transport}
	defer p.tearDown()

	list := p.plan.Measured
	n := max(2, w.Rounds/4*w.PerRound) // a quarter of the list, in whole rounds
	control, traced, spare := list[:n], list[n:2*n], list[2*n:]

	setupS, err := p.setUp(0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	warmS := secs(func() { err = p.driveAll(p.plan.Warm[:(len(p.plan.Warm)+1)/2]) })
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m0 := p.measure(control, w.PerRound)
	p.setTracing(rec, timer)
	m := p.measure(traced, w.PerRound)
	p.setTracing(nil, timer)

	runs := float64(m.runs())
	res.add("trace_overhead_share", m.cpuPerRun()/m0.cpuPerRun()-1, "ratio", m.runs())
	res.add("proc.setup_once_s", setupS.Seconds(), "s", 1)
	res.add("proc.warmup_s", warmS, "s", 1)

	// client: what the callers saw beyond the medians.
	lat := column(m.samples, func(s sample) float64 { return s.latency })
	ack := column(m.samples, func(s sample) float64 { return s.ack })
	tail := tailPercentile(len(lat))
	var frames, rejected, cached, failed float64
	for _, s := range m.samples {
		frames += float64(s.frames)
		rejected += float64(s.rejected)
		if s.cached {
			cached++
		}
		if s.err != nil {
			failed++
		}
	}
	res.add("client.run_latency_p90_s", percentile(lat, 90), "s", len(lat))
	res.add("client.run_latency_p99_s", percentile(lat, 99), "s", len(lat))
	res.add("client.run_latency_max_s", percentile(lat, 100), "s", len(lat))
	res.add("client.run_latency_tail_pct", tail, "%", len(lat))
	res.add("client.run_latency_tail_s", percentile(lat, max(tail, 50)), "s", len(lat))
	res.add("submit_ack_p50_s", percentile(ack, 50), "s", len(ack))
	res.add("client.submit_ack_p99_s", percentile(ack, 99), "s", len(ack))
	res.add("client.backpressure_429", rejected, "count", 0)
	res.add("client.sse_frames_per_run", frames/runs, "count", m.runs())
	res.add("failed_share", failed/runs, "ratio", m.runs())
	res.add("proc.gc_cycles_per_run", float64(m.after.gcs-m.before.gcs)/runs, "count", m.runs())
	res.add("proc.gc_pause_total_s", float64(m.after.pauseNs-m.before.pauseNs)/1e9, "s", 0)
	res.add("proc.rss_peak_mb", float64(m.after.rssKB)/1024, "MB", 0)
	res.add("proc.goroutines", float64(runtime.NumGoroutine()), "count", 0)

	// server + events: the phases of each traced run as the coordinator
	// stamped them, and submission with and without HTTP + JSON around it.
	adoptFleetSpans(rec.spans)
	for _, ph := range []struct{ metric, span string }{
		{"server.queue_wait_s_p50", "server.queue"},
		{"server.exec_s_p50", "server.exec"},
		{"events.delivery_s_p50", "events.delivery"},
	} {
		d := spanSeconds(rec.spans, ph.span)
		res.add(ph.metric, median(d), "s", len(d))
	}
	res.add("server.cache_hit_share", cached/runs, "ratio", m.runs())
	direct, err := p.submitDirect(spare[:min(len(spare), max(2, n/8))])
	if err != nil {
		return nil, err
	}
	res.add("server.submit_direct_s_p50", median(direct), "s", len(direct))
	if err := p.probeReads(res); err != nil {
		return nil, err
	}
	selfTable(res, rec.spans)
	if err := writeTrace(traceFile, rec.spans); err != nil {
		return nil, err
	}

	// Fleet and on-disk layers: the workload's own stack where it has
	// them, the probe stack where it does not.
	fleetSrc, fleetTimer, diskSrc, diskRounds := p, timer, p, m
	if !w.Fleet || !w.Durable {
		probe, pm, pt, err := runFleetProbe(w, traced, tmp)
		if err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
		defer probe.tearDown()
		if !w.Fleet {
			fleetSrc, fleetTimer = probe, pt
		}
		if !w.Durable {
			diskSrc, diskRounds = probe, pm
		}
	}
	fleetSrc.fleetMetrics(res, fleetTimer)
	if err := diskSrc.diskMetrics(res, diskRounds); err != nil {
		return nil, err
	}
	p.check(res)
	p.tearDown()
	fleetSrc.tearDown()

	// Direct probes, with no service running beside them.
	artifacts, err := probeExp(res, traced)
	if err != nil {
		return nil, err
	}
	probeEvents(res)
	for _, probe := range []func() error{
		func() error { return probeCkpt(res, tmp, traced[0]) },
		func() error { return probeRunstore(res, tmp, traced[0]) },
		func() error { return probeBlobs(res, tmp, artifacts) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setTracing switches span recording in the clients and RPC timing in the
// fleet workers' transports on (rec set) or off (nil).
func (p *pass) setTracing(rec *recorder, timer *rpcTimer) {
	for _, c := range p.clients {
		c.rec = rec
	}
	timer.on.Store(rec != nil)
}

// submitDirect calls Server.Submit in-process — admission, journal append
// and history append without HTTP or JSON — and waits for the runs.
func (p *pass) submitDirect(jobs []job) ([]float64, error) {
	var each []float64
	for _, j := range jobs {
		var st server.Status
		var err error
		each = append(each, secs(func() { st, err = p.st.srv.Submit(j.Tenant, j.Job) }))
		if err != nil {
			return nil, fmt.Errorf("direct submit: %w", err)
		}
		p.steps = append(p.steps, stepRecord{job: j, sample: sample{id: st.ID, cached: st.Cached}})
		// One at a time: a closed-loop caller, as in the measured rounds.
		if err := p.st.waitDone([]string{st.ID}); err != nil {
			return nil, err
		}
	}
	return each, nil
}

// probeReads times the read endpoints from one idle client: the metrics
// scrape, the benchmark's filtered list query and the analytics view.
func (p *pass) probeReads(res *result) error {
	c := p.clients[0]
	timeGet := func(path string, v any, n int) ([]float64, error) {
		var each []float64
		for i := 0; i < n; i++ {
			var err error
			each = append(each, secs(func() { err = c.getJSON(path, v) }))
			if err != nil {
				return nil, err
			}
		}
		return each, nil
	}
	var snap obs.Snapshot
	scrape, err := timeGet("/metrics.json", &snap, scrapeProbes)
	if err != nil {
		return err
	}
	var page server.RunPage
	list, err := timeGet(listPath(p.plan.Measured[0].Tenant), &page, listProbes)
	if err != nil {
		return err
	}
	var a server.Analytics
	analytics, err := timeGet(analyticsPath, &a, analyticsProbes)
	if err != nil {
		return err
	}
	res.add("server.metrics_scrape_s_p50", median(scrape), "s", len(scrape))
	res.add("query_p50_s", median(list), "s", len(list))
	res.add("analytics_p50_s", median(analytics), "s", len(analytics))
	return nil
}

// runFleetProbe drives the first jobs of the traced list through a
// durable coordinator with two fleet workers, timing their RPCs.
func runFleetProbe(w workload, jobs []job, tmp string) (*pass, rounds, *rpcTimer, error) {
	timer := newRPCTimer(nil)
	jobs = jobs[:min(len(jobs), fleetProbeRuns)]
	pw := workload{Name: w.Name + "/fleet-probe", Scenario: w.Scenario, Durable: true, Fleet: true,
		Clients: w.Clients, Tenants: w.Tenants}
	probe := &pass{w: pw, tmp: filepath.Join(tmp, "fleet-probe"), rpc: timer.transport}
	if _, err := probe.setUp(0); err != nil {
		return nil, rounds{}, nil, err
	}
	timer.on.Store(true)
	m := probe.measure(jobs, len(jobs))
	timer.on.Store(false)
	for _, s := range m.samples {
		if s.err != nil {
			probe.tearDown()
			return nil, rounds{}, nil, s.err
		}
	}
	return probe, m, timer, nil
}

// fleetMetrics reports the RPC timings t collected on p's fleet workers.
func (p *pass) fleetMetrics(res *result, t *rpcTimer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	runs := float64(len(t.secs["result"]))
	var rpcs, retries float64
	for _, s := range t.secs {
		rpcs += float64(len(s))
	}
	for _, wk := range p.st.workers {
		retries += sumMetric(wk.Registry().Snapshot(), "dyflow_worker_rpc_retries_total")
	}
	for _, kind := range []string{"claim", "blob_put", "result"} {
		res.add("fleet."+kind+"_s_p50", median(t.secs[kind]), "s", len(t.secs[kind]))
	}
	res.add("fleet.heartbeats_per_run", float64(len(t.secs["heartbeat"]))/runs, "count", int(runs))
	res.add("fleet.rpcs_per_run", rpcs/runs, "count", int(runs))
	res.add("fleet.wire_kb_per_run", float64(t.bytes)/1024/runs, "KB", int(runs))
	res.add("fleet.rpc_retries", retries, "count", 0)
}

// diskMetrics reports the on-disk layers of a durable pass over the rounds
// r it measured, then closes and reopens the coordinator for restore_s.
func (p *pass) diskMetrics(res *result, r rounds) error {
	runs := float64(r.runs())
	var snap obs.Snapshot
	if err := p.clients[0].getJSON("/metrics.json", &snap); err != nil {
		return err
	}
	hs := p.st.srv.History().Stats()
	kb := func(b int64) float64 { return float64(b) / 1024 / runs }
	res.add("disk_kb_per_run", kb(r.disk.total()), "KB", r.runs())
	res.add("ckpt.journal_kb_per_run", kb(r.disk.ckpt), "KB", r.runs())
	res.add("ckpt.snapshots", sumMetric(snap, "dyflow_server_snapshot_total"), "count", 0)
	res.add("runstore.segment_kb_per_run", kb(r.disk.runs), "KB", r.runs())
	res.add("runstore.dead_share", float64(hs.DeadRecords)/float64(hs.TotalRecords), "ratio", int(hs.TotalRecords))

	restore, err := p.st.reopen()
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	p.connect()
	res.add("restore_s", restore.Seconds(), "s", 1)
	return nil
}

// selfGroups are the rows of the self-time table: span names, with every
// fleet RPC and every read of the history-query script folded into one row
// each.
var selfGroups = []string{"run", "server_admit", "server_queue", "server_exec",
	"fleet_rpc", "events_delivery", "status", "reads"}

// selfTable reports where the traced runs' wall time went: per group, self
// time (a span's duration minus what its child spans cover) as a share of
// the runs' total wall time.
func selfTable(res *result, spans []span) {
	self := selfTimes(spans)
	group := func(name string) string {
		switch {
		case strings.HasPrefix(name, "fleet."):
			return "fleet_rpc"
		case strings.HasPrefix(name, "read."):
			return "reads"
		}
		return strings.ReplaceAll(name, ".", "_")
	}
	sums := map[string]float64{}
	var roots int
	var rootNs, selfNs float64
	for i, sp := range spans {
		switch {
		case sp.Name == "run":
			roots++
			rootNs += float64(sp.End - sp.Start)
		case sp.Parent < 0:
			continue // an RPC for a run outside the traced rounds
		}
		sums[group(sp.Name)] += float64(self[i])
		selfNs += float64(self[i])
	}
	for _, g := range selfGroups {
		res.add("self."+g+"_share", sums[g]/rootNs, "ratio", roots)
	}
	res.add("trace.wall_s_per_run", rootNs/1e9/float64(roots), "s", roots)
	res.add("trace.self_sum_share", selfNs/rootNs, "ratio", roots)
}

// writeTrace writes the spans out once the pass is over.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
