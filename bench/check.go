package main

import (
	"fmt"
	"math"
	"sort"

	"dyflow/internal/exp"
	"dyflow/internal/server"
)

// check runs the output checks on the kept stack and books their verdicts
// in res: a run that did not end done + converged, a list total that is
// off, or a sampled run whose artifacts differ from a direct exp.RunJob of
// the same job each count as failed operations.
func (p *pass) check(res *result) {
	res.Attempted = len(p.steps)
	for _, s := range p.steps {
		if s.err != nil {
			res.fail("step %s: %v", s.id, s.err)
		}
	}
	if err := p.checkTotal(); err != nil {
		res.fail("%v", err)
	}
	for _, s := range p.sampleSteps() {
		if err := p.checkAgainstDirect(s); err != nil {
			res.fail("run %s: %v", s.id, err)
		}
	}
	res.Correct = res.Failed == 0
}

// checkTotal pages through the whole history: every ID once, and as many
// as were submitted.
func (p *pass) checkTotal() error {
	want := len(p.plan.Preload) + len(p.steps)
	seen := make(map[string]bool, want)
	c := p.clients[0]
	for token := ""; ; {
		path := "/v1/runs?limit=1000"
		if token != "" {
			path += "&page_token=" + token
		}
		var page server.RunPage
		if err := c.getJSON(path, &page); err != nil {
			return err
		}
		for _, r := range page.Runs {
			if seen[r.ID] {
				return fmt.Errorf("run %s listed twice across history pages", r.ID)
			}
			seen[r.ID] = true
		}
		if token = page.NextPageToken; token == "" {
			break
		}
	}
	if len(seen) != want {
		return fmt.Errorf("GET /v1/runs lists %d runs, %d were submitted", len(seen), want)
	}
	return nil
}

// sampleSteps picks the workload's fixed sample: evenly spaced positions in
// the measured part of the step list.
func (p *pass) sampleSteps() []stepRecord {
	measured := p.steps[p.measuredFrom:]
	n := min(p.w.Samples, len(measured))
	out := make([]stepRecord, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, measured[k*len(measured)/n])
	}
	return out
}

// checkAgainstDirect re-runs the step's job in the bench process and
// compares sim_seconds and all four artifact digests with what the service
// serves for the run over HTTP: byte-determinism and transport integrity,
// and for a cached run that it returns its source's bytes.
func (p *pass) checkAgainstDirect(s stepRecord) error {
	if s.err != nil {
		return nil // already counted
	}
	d, err := runDirect(s.job.Job)
	if err != nil {
		return fmt.Errorf("direct run: %w", err)
	}
	c := p.clients[0]
	var st server.Status
	if err := c.getJSON("/v1/runs/"+s.id, &st); err != nil {
		return err
	}
	if st.State != server.StateDone || !st.Converged || st.Cached != s.cached {
		return fmt.Errorf("status %s converged=%v cached=%v (stream said cached=%v)", st.State, st.Converged, st.Cached, s.cached)
	}
	if math.Abs(st.SimSeconds-d.out.SimEnd.Seconds()) > 1e-9 {
		return fmt.Errorf("sim_seconds %v, direct run %v", st.SimSeconds, d.out.SimEnd.Seconds())
	}
	want := digests(d.out.Artifacts)
	names := []string{exp.ArtifactReport, exp.ArtifactGantt, exp.ArtifactPerfetto, exp.ArtifactMetrics}
	sort.Strings(names)
	if fmt.Sprint(st.Artifacts) != fmt.Sprint(names) {
		return fmt.Errorf("artifacts %v, want %v", st.Artifacts, names)
	}
	for _, name := range names {
		blob, err := c.get("/v1/runs/" + s.id + "/artifacts/" + name)
		if err != nil {
			return err
		}
		if got := sha256Hex(blob); got != want[name] {
			return fmt.Errorf("artifact %s sha256 %s, direct run %s", name, got, want[name])
		}
	}
	return nil
}
