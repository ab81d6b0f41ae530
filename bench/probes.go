package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/runstore"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
)

// The probes measure one layer at a time through its public functions, on
// inputs taken from the workload (its jobs, their artifacts) or of a fixed
// size, with nothing else running in the process.

const (
	expProbeRuns      = 200 // direct exp.RunJob calls at most
	blobProbeRuns     = 50  // of which this many keep their artifacts for the blob probe
	eventProbeOps     = 100000
	ckptProbeAppends  = 2000
	storeProbeRuns    = 20000 // runs in the temp runstore; 3 records each
	storeProbeQueries = 200
)

// secs times fn.
func secs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// probeExp runs the jobs directly and reports the exp + sim + core layer.
// It returns the artifact sets of the first few runs for the blob probe.
func probeExp(res *result, jobs []job) ([]map[string][]byte, error) {
	jobs = jobs[:min(len(jobs), expProbeRuns)]
	var total, build []float64
	var artBytes, allocB, evs, handoffs, sends, plans, ops, wall float64
	var kept []map[string][]byte
	for _, j := range jobs {
		d, err := runDirect(j.Job)
		if err != nil {
			return nil, fmt.Errorf("direct run of seed %d: %w", j.Job.Seed, err)
		}
		total = append(total, d.total.Seconds())
		build = append(build, d.build.Seconds())
		wall += d.total.Seconds()
		for _, a := range d.out.Artifacts {
			artBytes += float64(len(a))
		}
		allocB += float64(d.allocB)
		evs += float64(d.events)
		handoffs += float64(d.handoffs)
		sends += float64(d.sends)
		plans += stageEvents(d.out.Artifacts[exp.ArtifactMetrics], "arbiter.rounds")
		ops += stageEvents(d.out.Artifacts[exp.ArtifactMetrics], "actuate.ops")
		if len(kept) < blobProbeRuns {
			kept = append(kept, d.out.Artifacts)
		}
	}
	n := float64(len(jobs))
	res.add("exp.run_s_p50", median(total), "s", len(total))
	res.add("exp.world_build_s_p50", median(build), "s", len(build))
	res.add("exp.artifact_bytes_per_run", artBytes/n, "B", len(jobs))
	res.add("exp.alloc_mb_per_run", allocB/mb/n, "MB", len(jobs))
	res.add("sim.events_per_run", evs/n, "count", len(jobs))
	res.add("sim.handoffs_per_run", handoffs/n, "count", len(jobs))
	res.add("sim.events_per_s", evs/wall, "1/s", len(jobs))
	res.add("core.plans_per_run", plans/n, "count", len(jobs))
	res.add("core.actuate_ops_per_run", ops/n, "count", len(jobs))
	res.add("msg.sends_per_run", sends/n, "count", len(jobs))
	return kept, nil
}

// probeEvents times Journal.Append and Sub.Poll one call at a time on one
// run's ring with a subscriber attached, the way a tailed run uses them:
// every append is followed by the poll that picks it up. The clock reads
// around each call are included; at this scale they and the clock's
// granularity matter, hence the interquartile mean and not the median.
func probeEvents(res *result) {
	j := events.NewJournal(0, obs.NewRegistry())
	sub := j.Subscribe("run-probe", 0)
	defer sub.Close()
	appends := make([]float64, 0, eventProbeOps)
	polls := make([]float64, 0, eventProbeOps)
	for i := 0; i < eventProbeOps; i++ {
		ev := events.Event{Type: events.TypeProgress, Worker: "local", SimSeconds: float64(i)}
		appends = append(appends, secs(func() { j.Append("run-probe", ev) })*1e9)
		polls = append(polls, secs(func() { sub.Poll() })*1e9)
	}
	res.add("events.append_ns", midmean(appends), "ns", len(appends))
	res.add("events.poll_ns", midmean(polls), "ns", len(polls))
}

// submitRecord has the shape and size of the record the coordinator
// journals for one submission.
type submitRecord struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Job         exp.Job   `json:"job"`
	State       string    `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	QueuedAt    time.Time `json:"queued_at"`
}

// probeCkpt times ckpt.Store.Append of a submit-sized record.
func probeCkpt(res *result, tmp string, j job) error {
	st, err := ckpt.NewStore(filepath.Join(tmp, "probe-ckpt"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(st.Dir())
	now := time.Now()
	var each []float64
	for i := 0; i < ckptProbeAppends; i++ {
		rec := submitRecord{ID: fmt.Sprintf("run-%06d", i), Tenant: j.Tenant, Job: j.Job,
			State: "queued", SubmittedAt: now, QueuedAt: now}
		var err error
		d := secs(func() { err = st.Append("server.submit", rec) })
		if err != nil {
			return err
		}
		each = append(each, d)
	}
	res.add("ckpt.append_s_p50", median(each), "s", len(each))
	return nil
}

// probeRunstore fills a temp store the way the coordinator does — three
// records per run: queued, running, done — and times append, the
// benchmark's filtered query, reopening, and compaction.
func probeRunstore(res *result, tmp string, j job) error {
	dir := filepath.Join(tmp, "probe-runs")
	defer os.RemoveAll(dir)
	// Two records in three are dead by design; the threshold keeps the
	// background compactor out of the timings until Compact is called.
	opts := runstore.Options{Dir: dir, SegmentBytes: 1 << 20, CompactMinRecords: 1 << 30,
		Metrics: obs.NewRegistry()}
	st, err := runstore.Open(opts)
	if err != nil {
		return err
	}
	now := time.Now()
	var appends []float64
	for i := 0; i < storeProbeRuns; i++ {
		m := runstore.Meta{ID: fmt.Sprintf("run-%06d", i), Tenant: fmt.Sprintf("tenant-%d", i%8),
			Scenario: j.Job.Scenario, Key: j.Job.Key(), SubmittedAtNs: now.UnixNano() + int64(i)}
		for _, state := range []string{"queued", "running", "done"} {
			m.State, m.Terminal = state, state == "done"
			doc, err := json.Marshal(submitRecord{ID: m.ID, Tenant: m.Tenant, Job: j.Job,
				State: state, SubmittedAt: now, QueuedAt: now})
			if err != nil {
				return err
			}
			d := secs(func() { err = st.Append(m, doc) })
			if err != nil {
				return err
			}
			appends = append(appends, d)
		}
	}
	q := runstore.Query{Tenant: "tenant-0", State: "done", Limit: 100}
	var queries []float64
	for i := 0; i < storeProbeQueries; i++ {
		var page runstore.Page
		d := secs(func() { page, err = st.Query(q) })
		if err != nil {
			return err
		}
		if len(page.Items) != 100 {
			return fmt.Errorf("runstore probe query returned %d items", len(page.Items))
		}
		queries = append(queries, d)
	}
	before := st.Stats()
	compactS := secs(func() { err = st.Compact() })
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	openS := secs(func() { st, err = runstore.Open(opts) })
	if err != nil {
		return err
	}
	if st.Len() != storeProbeRuns {
		return fmt.Errorf("runstore probe reopened with %d runs, want %d", st.Len(), storeProbeRuns)
	}
	res.add("runstore.append_s_p50", median(appends), "s", len(appends))
	res.add("runstore.query_s_p50", median(queries), "s", len(queries))
	res.add("runstore.open_s", openS, "s", 1)
	res.add("runstore.compact_records_per_s", float64(before.TotalRecords)/compactS, "1/s", int(before.TotalRecords))
	return st.Close()
}

// probeBlobs puts the runs' artifacts into a disk-backed BlobStore.
func probeBlobs(res *result, tmp string, artifacts []map[string][]byte) error {
	dir := filepath.Join(tmp, "probe-blobs")
	defer os.RemoveAll(dir)
	bs, err := fleet.NewBlobStore(dir, obs.NewRegistry())
	if err != nil {
		return err
	}
	var bytes, puts float64
	seen := map[string]bool{}
	d := secs(func() {
		for _, set := range artifacts {
			for _, data := range set {
				var digest string
				if digest, err = bs.Put(data); err != nil {
					return
				}
				seen[digest] = true
				bytes += float64(len(data))
				puts++
			}
		}
	})
	if err != nil {
		return err
	}
	res.add("fleet.blob_put_mb_per_s", bytes/mb/d, "MB/s", int(puts))
	res.add("fleet.blob_dedup_share", (puts-float64(len(seen)))/puts, "ratio", int(puts))
	return nil
}
