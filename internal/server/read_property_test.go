package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
)

// The read path serves an evicted run from its index entry (the meta).
// These tests hold that against the implementation it replaced, kept below
// as the reference: every record carried a full document, and list, status
// and analytics decoded it (or copied every meta). The reference reads the
// documents the test wrote, never the store.

// refDoc is the document a record carried beside its meta while the meta
// did not hold the whole run: the reference format, as the coordinator
// marshaled it. ArtifactRefs are blob digests, not bytes.
type refDoc struct {
	ID           string            `json:"id"`
	Tenant       string            `json:"tenant"`
	Job          exp.Job           `json:"job"`
	State        RunState          `json:"state"`
	Cached       bool              `json:"cached,omitempty"`
	Err          string            `json:"error,omitempty"`
	Converged    bool              `json:"converged,omitempty"`
	SimEndNs     int64             `json:"sim_end_ns,omitempty"`
	Worker       string            `json:"worker,omitempty"`
	ArtifactRefs map[string]string `json:"artifact_refs,omitempty"`
	SubmittedAt  time.Time         `json:"submitted_at"`
	QueuedAt     time.Time         `json:"queued_at,omitempty"`
	ClaimedAt    time.Time         `json:"claimed_at,omitempty"`
	StartedAt    time.Time         `json:"started_at,omitempty"`
	FinishedAt   time.Time         `json:"finished_at,omitempty"`
}

func refDocOf(r *Run) refDoc {
	return refDoc{
		ID:           r.ID,
		Tenant:       r.Tenant,
		Job:          r.job(),
		State:        r.state(),
		Cached:       r.Cached,
		Err:          r.Error,
		Converged:    r.Converged,
		SimEndNs:     r.SimEndNs,
		Worker:       r.Worker,
		ArtifactRefs: r.Artifacts,
		SubmittedAt:  nsTime(r.SubmittedAtNs),
		QueuedAt:     nsTime(r.QueuedAtNs),
		ClaimedAt:    nsTime(r.ClaimedAtNs),
		StartedAt:    nsTime(r.StartedAtNs),
		FinishedAt:   nsTime(r.FinishedAtNs),
	}
}

// unixNs is a phase timestamp as a record holds it (zero time → 0).
func unixNs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// run is the *Run a document described.
func (p refDoc) run() *Run {
	r := &Run{Meta: runstore.Meta{
		ID:            p.ID,
		Tenant:        p.Tenant,
		Scenario:      p.Job.Scenario,
		Machine:       p.Job.Machine,
		Seed:          p.Job.Seed,
		XML:           p.Job.XML,
		Key:           p.Job.Key(),
		State:         string(p.State),
		Terminal:      p.State.Terminal(),
		Cached:        p.Cached,
		Error:         p.Err,
		Converged:     p.Converged,
		SimEndNs:      p.SimEndNs,
		Worker:        p.Worker,
		Artifacts:     p.ArtifactRefs,
		SubmittedAtNs: unixNs(p.SubmittedAt),
		QueuedAtNs:    unixNs(p.QueuedAt),
		ClaimedAtNs:   unixNs(p.ClaimedAt),
		StartedAtNs:   unixNs(p.StartedAt),
		FinishedAtNs:  unixNs(p.FinishedAt),
	}}
	r.simNow.Store(p.SimEndNs)
	return r
}

// refStatus is Run.status as it was when every Status came from a *Run.
func refStatus(r *Run) Status {
	p := refDocOf(r)
	st := Status{
		ID:          p.ID,
		Tenant:      p.Tenant,
		Job:         p.Job,
		State:       p.State,
		Cached:      p.Cached,
		Error:       p.Err,
		SimSeconds:  time.Duration(r.simNow.Load()).Seconds(),
		Converged:   p.Converged,
		Worker:      p.Worker,
		SubmittedAt: p.SubmittedAt,
	}
	if p.State == StateDone {
		st.SimSeconds = time.Duration(p.SimEndNs).Seconds()
	}
	for _, ts := range []struct {
		at  time.Time
		dst **time.Time
	}{
		{p.QueuedAt, &st.QueuedAt},
		{p.ClaimedAt, &st.ClaimedAt},
		{p.StartedAt, &st.StartedAt},
		{p.FinishedAt, &st.FinishedAt},
	} {
		if !ts.at.IsZero() {
			t := ts.at
			*ts.dst = &t
		}
	}
	for name := range p.ArtifactRefs {
		st.Artifacts = append(st.Artifacts, name)
	}
	sort.Strings(st.Artifacts)
	return st
}

// refEvicted is the old reader: the document is the record, always.
func refEvicted(t *testing.T, docs map[string][]byte, id string) Status {
	t.Helper()
	doc, ok := docs[id]
	if !ok {
		t.Fatalf("reference: no run %s", id)
	}
	var p refDoc
	if err := json.Unmarshal(doc, &p); err != nil {
		t.Fatalf("reference: decode %s: %v", id, err)
	}
	return refStatus(p.run())
}

// refPageToken is the list cursor's wire form: the last delivered run's
// (SubmittedAt ns, ID).
func refPageToken(ns int64, id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%d|%s", ns, id)))
}

// refQueryRuns is QueryRuns as it was, over the runs the test wrote: filter,
// order by (SubmittedAt, ID), resume strictly after the cursor, cut at the
// limit, and render each run resident or from its document, under the
// server mutex.
func refQueryRuns(t *testing.T, s *Server, pop []popRun, docs map[string][]byte, q RunQuery) RunPage {
	t.Helper()
	var curNs int64
	var curID string
	if q.PageToken != "" {
		raw, err := base64.RawURLEncoding.DecodeString(q.PageToken)
		parts := strings.SplitN(string(raw), "|", 2)
		if err != nil || len(parts) != 2 {
			t.Fatalf("reference: page token %q", q.PageToken)
		}
		if curNs, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
			t.Fatalf("reference: page token %q", q.PageToken)
		}
		curID = parts[1]
	}
	sorted := make([]refDoc, len(pop))
	for i, g := range pop {
		sorted[i] = g.p
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].SubmittedAt.UnixNano(), sorted[j].SubmittedAt.UnixNano()
		return a < b || (a == b && sorted[i].ID < sorted[j].ID)
	})
	var matched []refDoc
	more := false
	for _, p := range sorted {
		ns := p.SubmittedAt.UnixNano()
		switch {
		case q.Tenant != "" && p.Tenant != q.Tenant,
			q.Scenario != "" && p.Job.Scenario != q.Scenario,
			q.State != "" && string(p.State) != q.State,
			!q.Since.IsZero() && ns < q.Since.UnixNano(),
			!q.Until.IsZero() && ns > q.Until.UnixNano(),
			q.PageToken != "" && (ns < curNs || (ns == curNs && p.ID <= curID)):
			continue
		}
		if q.Limit > 0 && len(matched) == q.Limit {
			more = true
			break
		}
		matched = append(matched, p)
	}
	out := RunPage{Runs: make([]Status, 0, len(matched))}
	if more {
		last := matched[len(matched)-1]
		out.NextPageToken = refPageToken(last.SubmittedAt.UnixNano(), last.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range matched {
		if r := s.runs[p.ID]; r != nil {
			out.Runs = append(out.Runs, refStatus(r))
			continue
		}
		out.Runs = append(out.Runs, refEvicted(t, docs, p.ID))
	}
	return out
}

// refRunStatus is RunStatus as it was.
func refRunStatus(t *testing.T, s *Server, docs map[string][]byte, id string) Status {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.runs[id]; r != nil {
		return refStatus(r)
	}
	return refEvicted(t, docs, id)
}

// refSamples is analyticsSamples as it was: a slice sized for the resident
// runs, every meta copied out of the store. The resident runs come in map
// order, so the samples are a multiset.
func refSamples(s *Server) []runSample {
	s.mu.Lock()
	samples := make([]runSample, 0, len(s.runs))
	resident := make(map[string]bool, len(s.runs))
	for id, run := range s.runs {
		r := refDocOf(run)
		resident[id] = true
		sm := runSample{
			tenant: r.Tenant, scenario: r.Job.Scenario,
			state: r.State, cached: r.Cached,
			submittedNs: unixNs(r.SubmittedAt), qw: -1, ex: -1,
		}
		if !r.ClaimedAt.IsZero() && !r.QueuedAt.IsZero() {
			sm.qw = r.ClaimedAt.Sub(r.QueuedAt).Seconds()
		}
		if !r.FinishedAt.IsZero() && !r.StartedAt.IsZero() {
			sm.ex = r.FinishedAt.Sub(r.StartedAt).Seconds()
		}
		samples = append(samples, sm)
	}
	s.mu.Unlock()
	var metas []runstore.Meta
	s.history.EachMeta(func(m *runstore.Meta) bool {
		metas = append(metas, *m)
		return true
	})
	for _, m := range metas {
		if resident[m.ID] {
			continue
		}
		sm := runSample{
			tenant: m.Tenant, scenario: m.Scenario,
			state: RunState(m.State), cached: m.Cached,
			submittedNs: m.SubmittedAtNs, qw: -1, ex: -1,
		}
		if m.ClaimedAtNs > 0 && m.QueuedAtNs > 0 {
			sm.qw = time.Duration(m.ClaimedAtNs - m.QueuedAtNs).Seconds()
		}
		if m.FinishedAtNs > 0 && m.StartedAtNs > 0 {
			sm.ex = time.Duration(m.FinishedAtNs - m.StartedAtNs).Seconds()
		}
		samples = append(samples, sm)
	}
	return samples
}

// xmlOverride is the smallest document exp.Job.Normalized accepts.
const xmlOverride = `<dyflow><monitor/><decision/><arbitration/></dyflow>`

// popRun is one generated run: its record, its live progress if it is
// running, and whether a live coordinator would hold it resident.
type popRun struct {
	p        refDoc
	simNow   int64
	resident bool
}

// propBlobs are the artifact sets done runs reference; lostDigest is a
// reference that resolves nowhere (restore demotes such a run).
var propBlobs = [][]byte{[]byte("report-a"), []byte("gantt-a"), []byte("report-b"), []byte("gantt-b")}

const lostDigest = "00000000000000000000000000000000000000000000000000000000deadbeef"

// genPopulation covers every shape a record takes: queued, running (local
// and on a fleet worker), done (local, fleet, cached, after a lease-expiry
// requeue, with unresolvable artifacts), failed with an error string,
// canceled, requeued and waiting, terminal but still resident — crossed
// with seed 0, both machines, two scenarios and an XML override.
func genPopulation(rng *rand.Rand, n int, digests []string) []popRun {
	base := time.Unix(1_750_000_000, 123_456_789)
	artsA := map[string]string{exp.ArtifactReport: digests[0], exp.ArtifactGantt: digests[1]}
	artsB := map[string]string{exp.ArtifactReport: digests[2], exp.ArtifactGantt: digests[3]}
	pop := make([]popRun, n)
	for i := range pop {
		sub := base.Add(time.Duration(i/2) * 37 * time.Millisecond) // pairs tie on SubmittedAt
		at := func(ms int) time.Time {
			return sub.Add(time.Duration(ms)*time.Millisecond + time.Duration(rng.Intn(1000)))
		}
		p := refDoc{
			ID:     fmt.Sprintf("run-%06d", i),
			Tenant: fmt.Sprintf("tenant-%d", rng.Intn(3)),
			Job: exp.Job{
				Scenario: []string{exp.ScenarioQuickstart, exp.ScenarioGrayScott}[rng.Intn(2)],
				Machine:  []string{"summit", "dt2"}[rng.Intn(2)],
				Seed:     int64(rng.Intn(5)) * rng.Int63n(1<<40), // one in five is seed 0
			},
			SubmittedAt: sub,
			QueuedAt:    sub,
		}
		if rng.Intn(6) == 0 {
			p.Job.XML = xmlOverride
		}
		g := popRun{}
		arts := artsA
		if p.Job.Scenario == exp.ScenarioGrayScott {
			arts = artsB
		}
		switch kind := i % 12; kind {
		case 0: // queued
			p.State, g.resident = StateQueued, true
		case 1, 2: // running, locally or on a fleet worker
			p.State, g.resident = StateRunning, true
			p.ClaimedAt, p.StartedAt = at(2), at(3)
			g.simNow = int64(time.Duration(1+rng.Intn(500)) * time.Second)
			if kind == 2 {
				p.Worker = "w-2"
			}
		case 3, 4: // done, locally or on a fleet worker
			p.State, p.Converged, p.SimEndNs, p.ArtifactRefs = StateDone, rng.Intn(4) > 0, int64(time.Hour)+rng.Int63n(1e12), arts
			p.ClaimedAt, p.StartedAt, p.FinishedAt = at(2), at(3), at(40)
			if kind == 4 {
				p.Worker = "w-1"
			}
		case 5: // answered from the cache: never queued, its source's map
			p.State, p.Cached, p.Converged, p.SimEndNs, p.ArtifactRefs = StateDone, true, true, int64(time.Hour), arts
			p.QueuedAt, p.FinishedAt = time.Time{}, at(0)
		case 6: // failed, with a message JSON has to escape
			p.State, p.Err = StateFailed, fmt.Sprintf("exp: step %d: \"carve\" <failed> — no nodes", rng.Intn(99))
			p.ClaimedAt, p.StartedAt, p.FinishedAt = at(2), at(3), at(9)
		case 7: // canceled while queued
			p.State, p.FinishedAt = StateCanceled, at(5)
		case 8: // back in the queue after its lease lapsed
			p.State, g.resident = StateQueued, true
			p.QueuedAt = at(700)
		case 9: // done on a second worker after a requeue
			p.State, p.Converged, p.SimEndNs, p.ArtifactRefs, p.Worker = StateDone, true, int64(2*time.Hour), arts, "w-3"
			p.QueuedAt, p.ClaimedAt, p.StartedAt, p.FinishedAt = at(700), at(702), at(703), at(760)
		case 10: // done, but its artifacts resolve nowhere
			p.State, p.Converged, p.SimEndNs = StateDone, true, int64(time.Hour)
			p.ArtifactRefs = map[string]string{exp.ArtifactReport: lostDigest}
			p.ClaimedAt, p.StartedAt, p.FinishedAt = at(2), at(3), at(40)
		case 11: // failed, terminal record in, not evicted yet
			p.State, p.Err, g.resident = StateFailed, "boom", true
			p.ClaimedAt, p.StartedAt, p.FinishedAt = at(2), at(3), at(9)
			g.simNow = int64(7 * time.Second)
		}
		g.p = p
		pop[i] = g
	}
	return pop
}

// parentMeta is the meta as the parent format wrote it: without the
// fields that made a document unnecessary.
func parentMeta(m runstore.Meta) runstore.Meta {
	return runstore.Meta{
		ID: m.ID, Tenant: m.Tenant, Scenario: m.Scenario, Key: m.Key,
		State: m.State, Terminal: m.Terminal, Cached: m.Cached, Converged: m.Converged,
		SubmittedAtNs: m.SubmittedAtNs, QueuedAtNs: m.QueuedAtNs, ClaimedAtNs: m.ClaimedAtNs,
		StartedAtNs: m.StartedAtNs, FinishedAtNs: m.FinishedAtNs, SimEndNs: m.SimEndNs,
		Artifacts: m.Artifacts, ArtifactBytes: m.ArtifactBytes,
	}
}

// propServer opens a coordinator (workers < 0: none) holding propBlobs.
func propServer(t *testing.T, dir string, workers int) (*Server, []string) {
	t.Helper()
	s, err := New(Config{Workers: workers, TenantQuota: -1, QueueDepth: 1 << 20, CkptDir: dir,
		RunstoreSegmentBytes: 8 << 10, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, b := range propBlobs {
		d, err := s.blobs.Put(b)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	return s, digests
}

// inject records the population in s the way a live coordinator would
// have — resident runs in the run table, every run in the history store —
// in this commit's format, or in the parent's (meta without the new
// fields, a full document on every record). It returns the documents it
// wrote, by run ID.
func inject(t *testing.T, s *Server, pop []popRun, parentFormat bool) map[string][]byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	docs := map[string][]byte{}
	for _, g := range pop {
		r := g.p.run()
		if g.simNow != 0 {
			r.simNow.Store(g.simNow)
		}
		for _, digest := range r.Artifacts {
			r.ArtifactBytes += s.blobs.Size(digest)
		}
		if g.resident {
			s.runs[r.ID] = r
		}
		var err error
		if parentFormat {
			var doc []byte
			if doc, err = json.Marshal(refDocOf(r)); err == nil {
				docs[r.ID] = doc
				err = s.history.Append(parentMeta(r.Meta), doc)
			}
		} else {
			err = s.historyAppendLocked(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.nextID = len(pop)
	return docs
}

// getJSON serves one GET through the handler and decodes the 200 body.
func getJSON(t *testing.T, h http.Handler, target string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: %v in %s", target, err, rec.Body)
	}
}

// viaJSON is what a client would decode from v's encoding.
func viaJSON[T any](t *testing.T, v T) T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameStatuses compares decoded statuses field by field, instants by
// time.Time.Equal at nanosecond precision (UTC() drops the zone a decoded
// timestamp happens to carry; reflect.DeepEqual then compares wall time).
func sameStatuses(t *testing.T, what string, got, want []Status) {
	t.Helper()
	utc := func(p *time.Time) *time.Time {
		if p == nil {
			return nil
		}
		u := p.UTC()
		return &u
	}
	norm := func(in []Status) []Status {
		out := make([]Status, len(in))
		for i, st := range in {
			st.SubmittedAt = st.SubmittedAt.UTC()
			st.QueuedAt, st.ClaimedAt, st.StartedAt, st.FinishedAt = utc(st.QueuedAt), utc(st.ClaimedAt), utc(st.StartedAt), utc(st.FinishedAt)
			out[i] = st
		}
		return out
	}
	g, w := norm(got), norm(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d runs, want %d", what, len(g), len(w))
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) {
			gj, _ := json.Marshal(g[i])
			wj, _ := json.Marshal(w[i])
			t.Fatalf("%s: run %d differs\n got  %s\n want %s", what, i, gj, wj)
		}
	}
}

// sameSamples compares two folds' samples as multisets: the order a fold
// visits runs in is not observable in /v1/analytics.
func sameSamples(got, want []runSample) bool {
	n := map[runSample]int{}
	for _, sm := range got {
		n[sm]++
	}
	for _, sm := range want {
		n[sm]--
	}
	for _, c := range n {
		if c != 0 {
			return false
		}
	}
	return len(got) == len(want)
}

// listTarget renders q as a GET /v1/runs URL.
func listTarget(q RunQuery) string {
	v := url.Values{}
	for k, s := range map[string]string{"tenant": q.Tenant, "scenario": q.Scenario, "state": q.State, "page_token": q.PageToken} {
		if s != "" {
			v.Set(k, s)
		}
	}
	if !q.Since.IsZero() {
		v.Set("since", q.Since.Format(time.RFC3339))
	}
	if !q.Until.IsZero() {
		v.Set("until", q.Until.Format(time.RFC3339))
	}
	v.Set("limit", fmt.Sprint(q.Limit))
	return "/v1/runs?" + v.Encode()
}

// walk pages through q on h, returning every status in order and failing
// on a repeated ID.
func walk(t *testing.T, h http.Handler, q RunQuery) ([]Status, []RunPage) {
	t.Helper()
	var all []Status
	var pages []RunPage
	seen := map[string]bool{}
	for {
		var page RunPage
		getJSON(t, h, listTarget(q), &page)
		if len(page.Runs) > q.Limit {
			t.Fatalf("%s: page of %d over limit %d", listTarget(q), len(page.Runs), q.Limit)
		}
		for _, st := range page.Runs {
			if seen[st.ID] {
				t.Fatalf("%s: %s listed twice", listTarget(q), st.ID)
			}
			seen[st.ID] = true
		}
		all = append(all, page.Runs...)
		pages = append(pages, page)
		if q.PageToken = page.NextPageToken; q.PageToken == "" {
			return all, pages
		}
	}
}

// propQueries is every filter combination, each at page sizes 1, 7 and
// 100 (size 1 only where the filter keeps the walk short), plus
// submission-time windows.
func propQueries(pop []popRun) []RunQuery {
	var qs []RunQuery
	for _, tenant := range []string{"", "tenant-0", "tenant-1", "tenant-2", "nobody"} {
		for _, scenario := range []string{"", exp.ScenarioQuickstart, exp.ScenarioGrayScott} {
			for _, state := range []string{"", "queued", "running", "done", "failed", "canceled"} {
				for _, limit := range []int{1, 7, 100} {
					if limit == 1 && (tenant == "" || state == "") {
						continue
					}
					qs = append(qs, RunQuery{Tenant: tenant, Scenario: scenario, State: state, Limit: limit})
				}
			}
		}
	}
	lo, hi := pop[len(pop)/4].p.SubmittedAt, pop[3*len(pop)/4].p.SubmittedAt
	for _, tenant := range []string{"", "tenant-1"} {
		// since/until are RFC 3339 to the second on the wire.
		qs = append(qs, RunQuery{Tenant: tenant, Since: lo.Truncate(time.Second), Until: hi.Truncate(time.Second).Add(time.Second), Limit: 7},
			RunQuery{Tenant: tenant, State: "done", Since: hi.Truncate(time.Second).Add(time.Second), Limit: 7})
	}
	return qs
}

func TestProperty_StatusFromMeta_EqualsDocPath(t *testing.T) {
	const n = 360
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("live/durable=%v", durable), func(t *testing.T) {
			dirs := [2]string{}
			if durable {
				dirs = [2]string{t.TempDir(), t.TempDir()}
			}
			// cur holds the population in this commit's format; ref holds it
			// in the parent's, and is read both by the reference code above
			// and by the handler (the document path of the new reader).
			cur, digests := propServer(t, dirs[0], 3)
			defer cur.Close()
			ref, _ := propServer(t, dirs[1], 3)
			defer ref.Close()
			pop := genPopulation(rand.New(rand.NewSource(19)), n, digests)
			inject(t, cur, pop, false)
			refDocs := inject(t, ref, pop, true)
			curH, refH := cur.Handler(), ref.Handler()
			inPop := func(sts []Status) []Status {
				var out []Status
				for _, st := range sts {
					if st.ID < fmt.Sprintf("run-%06d", n) {
						out = append(out, st)
					}
				}
				return out
			}

			// Fetched one by one.
			for _, g := range pop {
				want := viaJSON(t, refRunStatus(t, ref, refDocs, g.p.ID))
				for name, h := range map[string]http.Handler{"new format": curH, "parent format": refH} {
					var got Status
					getJSON(t, h, "/v1/runs/"+g.p.ID, &got)
					sameStatuses(t, name+" status "+g.p.ID, []Status{got}, []Status{want})
				}
			}

			// Listed: page by page, tokens included.
			for _, q := range propQueries(pop) {
				var want []RunPage
				for rq := q; ; {
					page := viaJSON(t, refQueryRuns(t, ref, pop, refDocs, rq))
					want = append(want, page)
					if rq.PageToken = page.NextPageToken; rq.PageToken == "" {
						break
					}
				}
				for name, h := range map[string]http.Handler{"new format": curH, "parent format": refH} {
					_, got := walk(t, h, q)
					if len(got) != len(want) {
						t.Fatalf("%s %s: %d pages, want %d", name, listTarget(q), len(got), len(want))
					}
					for i := range got {
						if got[i].NextPageToken != want[i].NextPageToken {
							t.Fatalf("%s %s page %d: token %q, want %q", name, listTarget(q), i, got[i].NextPageToken, want[i].NextPageToken)
						}
						sameStatuses(t, fmt.Sprintf("%s %s page %d", name, listTarget(q), i), got[i].Runs, want[i].Runs)
					}
				}
			}

			// Aggregated: the fold's input is the old fold's input, and the
			// two formats aggregate alike.
			if got, want := cur.analyticsSamples(), refSamples(cur); !sameSamples(got, want) {
				t.Fatalf("analytics samples differ from the copying fold's (%d vs %d)", len(got), len(want))
			}
			var curA, refA Analytics
			getJSON(t, curH, "/v1/analytics?trend_bucket=1s&trend_buckets=5", &curA)
			getJSON(t, refH, "/v1/analytics?trend_bucket=1s&trend_buckets=5", &refA)
			if curA.Runs != n || !reflect.DeepEqual(curA, refA) {
				t.Fatalf("analytics differ between formats:\n new    %+v\n parent %+v", curA, refA)
			}

			// Paged across concurrent appends: each original ID exactly once
			// (walk fails on a repeat), bodies still the reference's.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Bounded and paced, so a walk chasing the tail ends.
				for i := 0; i < 400; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := cur.Submit(fmt.Sprintf("tenant-%d", i%3), quick(int64(9000+i%4))); err != nil {
						t.Error(err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
			for _, q := range []RunQuery{{Limit: 7}, {Limit: 100}, {Limit: 1, Tenant: "tenant-1", State: "done"}, {Limit: 7, Tenant: "tenant-2"}, {Limit: 7, Scenario: exp.ScenarioQuickstart, State: "done"}} {
				got, _ := walk(t, curH, q)
				want, _ := walk(t, refH, q)
				sameStatuses(t, "during appends "+listTarget(q), inPop(got), want)
			}
			close(stop)
			wg.Wait()
		})
	}

	// Second half: a directory written in the parent's format lists,
	// serves, restores and requeues like one written in this commit's —
	// and keeps doing so with new records behind it and after a compaction.
	t.Run("restore", func(t *testing.T) {
		oldDir, newDir := t.TempDir(), t.TempDir()
		var pop []popRun
		for _, d := range []struct {
			dir    string
			parent bool
		}{{oldDir, true}, {newDir, false}} {
			s, digests := propServer(t, d.dir, -1)
			pop = genPopulation(rand.New(rand.NewSource(23)), n, digests)
			inject(t, s, pop, d.parent)
			s.Close()
		}

		// compare holds two restored coordinators against each other. A
		// restore stamps QueuedAt on what it requeues, so that one field is
		// compared by presence only.
		compare := func(what string, a, b *Server) {
			t.Helper()
			residents := func(s *Server) ([]string, int) {
				s.mu.Lock()
				defer s.mu.Unlock()
				var ids []string
				for id := range s.runs {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				return ids, s.nextID
			}
			ao, an := residents(a)
			bo, bn := residents(b)
			if !reflect.DeepEqual(ao, bo) || an != bn || queued(a) != queued(b) {
				t.Fatalf("%s: resident %d / nextID %d / queue %d vs resident %d / nextID %d / queue %d",
					what, len(ao), an, queued(a), len(bo), bn, queued(b))
			}
			blank := func(sts []Status) []Status {
				presence := func(p *time.Time) *time.Time {
					if p == nil {
						return nil
					}
					return &time.Time{}
				}
				for i := range sts {
					st := &sts[i]
					if st.ID >= fmt.Sprintf("run-%06d", n) { // submitted to each side at its own time
						st.SubmittedAt = time.Time{}
						st.QueuedAt, st.FinishedAt = presence(st.QueuedAt), presence(st.FinishedAt)
					} else if st.State == StateQueued {
						st.QueuedAt = presence(st.QueuedAt)
					}
				}
				return sts
			}
			for _, q := range []RunQuery{{Limit: 100}, {Limit: 7, Tenant: "tenant-0"}, {Limit: 7, State: "queued"}, {Limit: 7, State: "done", Scenario: exp.ScenarioGrayScott}, {Limit: 7, State: "failed"}} {
				got, _ := walk(t, a.Handler(), q)
				want, _ := walk(t, b.Handler(), q)
				sameStatuses(t, what+" "+listTarget(q), blank(got), blank(want))
			}
			all, _ := walk(t, a.Handler(), RunQuery{Limit: 100})
			for _, st := range all {
				var got, want Status
				getJSON(t, a.Handler(), "/v1/runs/"+st.ID, &got)
				getJSON(t, b.Handler(), "/v1/runs/"+st.ID, &want)
				sameStatuses(t, what+" status "+st.ID, blank([]Status{got}), blank([]Status{want}))
				for _, name := range st.Artifacts {
					ab, aerr := a.Artifact(st.ID, name)
					bb, berr := b.Artifact(st.ID, name)
					if aerr != nil || berr != nil || string(ab) != string(bb) {
						t.Fatalf("%s: artifact %s/%s: %q (%v) vs %q (%v)", what, st.ID, name, ab, aerr, bb, berr)
					}
				}
				a.mu.Lock()
				ar := a.runs[st.ID]
				a.mu.Unlock()
				b.mu.Lock()
				br := b.runs[st.ID]
				b.mu.Unlock()
				if ar != nil && ar.job() != br.job() {
					t.Fatalf("%s: %s would re-execute %+v vs %+v", what, st.ID, ar.job(), br.job())
				}
			}
			if aa, ba := a.AnalyticsWithTrends(0, 0), b.AnalyticsWithTrends(0, 0); !reflect.DeepEqual(aa, ba) {
				t.Fatalf("%s: analytics differ:\n %+v\n %+v", what, aa, ba)
			}
		}
		open := func(dir string) *Server {
			t.Helper()
			s, _ := propServer(t, dir, -1)
			return s
		}

		a, b := open(oldDir), open(newDir)
		compare("restored", a, b)
		// Of the population, restore brings back the non-terminal runs and
		// the done ones whose artifacts are lost, XML overrides intact.
		wantResident := 0
		for _, g := range pop {
			back := !g.p.State.Terminal() || (g.p.State == StateDone && g.p.ArtifactRefs[exp.ArtifactReport] == lostDigest)
			if back {
				wantResident++
			}
			a.mu.Lock()
			r := a.runs[g.p.ID]
			a.mu.Unlock()
			if (r != nil) != back || (back && (r.state() != StateQueued || r.job() != g.p.Job)) {
				t.Fatalf("%s (%s, xml=%v): restored as %+v", g.p.ID, g.p.State, g.p.Job.XML != "", r)
			}
		}
		if queued(a) != wantResident {
			t.Fatalf("restore queued %d runs, want %d", queued(a), wantResident)
		}

		// New-format records behind the old ones: the restore's own queued
		// records, then cache hits on restored results and fresh runs.
		for _, s := range []*Server{a, b} {
			for _, g := range pop[:48] {
				if _, err := s.Submit("tenant-9", g.p.Job); err != nil {
					t.Fatal(err)
				}
			}
		}
		compare("appended behind", a, b)
		if ah, bh := a.AnalyticsWithTrends(0, 0).CacheHits, b.AnalyticsWithTrends(0, 0).CacheHits; ah != bh || ah == 0 {
			t.Fatalf("cache hits on restored results: %d vs %d", ah, bh)
		}

		before, _ := walk(t, a.Handler(), RunQuery{Limit: 100})
		stats := a.History().Stats()
		if err := a.History().Compact(); err != nil {
			t.Fatal(err)
		}
		if after := a.History().Stats(); after.Segments >= stats.Segments || after.DeadRecords >= stats.DeadRecords {
			t.Fatalf("compaction did nothing: %+v -> %+v", stats, after)
		}
		after, _ := walk(t, a.Handler(), RunQuery{Limit: 100})
		sameStatuses(t, "across compaction", after, before)
		compare("compacted", a, b)

		a.Close()
		b.Close()
		a, b = open(oldDir), open(newDir)
		defer a.Close()
		defer b.Close()
		compare("restored again", a, b)
	})
}
