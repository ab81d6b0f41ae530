package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
)

// maxTerminalRings bounds how many evicted terminal runs keep their SSE
// event rings for replay and their completing lease for result dedup.
const maxTerminalRings = 1024

// unixNs renders a phase timestamp for the history index (zero time → 0);
// nsTime is its inverse.
func unixNs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// runMetaLocked builds r's history record: everything about the run but
// its job's XML override. Caller holds the server mutex.
func (s *Server) runMetaLocked(r *Run) runstore.Meta {
	m := runstore.Meta{
		ID:            r.ID,
		Tenant:        r.Tenant,
		Scenario:      r.Job.Scenario,
		Machine:       r.Job.Machine,
		Seed:          r.Job.Seed,
		Key:           r.Job.Key(),
		State:         string(r.State),
		Terminal:      r.State.Terminal(),
		Cached:        r.Cached,
		Converged:     r.Converged,
		Error:         r.Err,
		Worker:        r.Worker,
		SubmittedAtNs: unixNs(r.SubmittedAt),
		QueuedAtNs:    unixNs(r.QueuedAt),
		ClaimedAtNs:   unixNs(r.ClaimedAt),
		StartedAtNs:   unixNs(r.StartedAt),
		FinishedAtNs:  unixNs(r.FinishedAt),
		SimEndNs:      int64(r.SimEnd),
		Artifacts:     r.Artifacts,
	}
	for _, digest := range r.Artifacts {
		m.ArtifactBytes += s.blobs.Size(digest)
	}
	return m
}

// historyAppendLocked records r's current state in the run-history
// store — the acknowledging write: callers make it before they publish
// the transition's event or answer 2xx. Caller holds the server mutex
// (the store has its own lock; s.mu → store is the only allowed order).
// A failure is logged here and counted by the store
// (dyflow_runstore_append_errors_total); Submit refuses on it, every
// other transition proceeds and the run stays resident until a later
// append records it.
//
// The meta is the record. Only an XML override does not fit in it, and
// only such a run carries a persistedRun document beside its meta.
func (s *Server) historyAppendLocked(r *Run) error {
	var doc []byte
	var err error
	if r.Job.XML != "" {
		doc, err = json.Marshal(r.persisted())
	}
	if err == nil {
		err = s.history.Append(s.runMetaLocked(r), doc)
	}
	if err != nil {
		s.logf("server: history append %s (%s): %v", r.ID, r.State, err)
	}
	return err
}

// evictTerminalLocked drops a terminal run from the resident map once
// its final record is in the history store — the bounded-heap half of
// the run-store design: only queued/running runs stay resident. Caller
// holds the server mutex.
func (s *Server) evictTerminalLocked(r *Run) {
	delete(s.runs, r.ID)
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == r.ID {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.retainRingLocked(doneRing{run: r.ID, lease: r.doneLease})
}

// doneRing is one evicted run whose SSE ring is still held, and the lease
// it reached its terminal state under ("" when it held none).
type doneRing struct{ run, lease string }

// retainRingLocked keeps an evicted run's SSE ring within the bounded
// retention window, dropping the oldest ring past it.
func (s *Server) retainRingLocked(d doneRing) {
	s.doneRings = append(s.doneRings, d)
	for len(s.doneRings) > maxTerminalRings {
		s.events.Drop(s.doneRings[0].run)
		s.doneRings = s.doneRings[1:]
	}
}

// storedRun is the one reader of history records. A record that carries a
// document is that document: every XML run, and every record written
// before the meta held machine, seed, error and worker. A record that
// carries none is its meta. intact is false when a document exists but
// could not be read back or is not this run's persistedRun; that is logged
// and counted, and p then holds what the meta knows — enough to list and
// serve the run, not enough to execute it (the XML is what was lost).
func (s *Server) storedRun(it runstore.Item) (p persistedRun, intact bool) {
	err := it.Err
	if err == nil && it.Doc != nil {
		var doc persistedRun // not p: Unmarshal would move it to the heap for the meta path too
		if err = json.Unmarshal(it.Doc, &doc); err == nil && doc.ID != it.Meta.ID {
			err = fmt.Errorf("document describes run %q", doc.ID)
		}
		if err == nil {
			return doc, true
		}
	}
	if err != nil {
		s.met.readErrs.Inc()
		s.logf("server: history document of %s unusable, serving its index entry: %v", it.Meta.ID, err)
	}
	m := &it.Meta
	return persistedRun{
		ID:           m.ID,
		Tenant:       m.Tenant,
		Job:          exp.Job{Scenario: m.Scenario, Machine: m.Machine, Seed: m.Seed},
		State:        RunState(m.State),
		Cached:       m.Cached,
		Err:          m.Error,
		Converged:    m.Converged,
		SimEndNs:     m.SimEndNs,
		Worker:       m.Worker,
		ArtifactRefs: m.Artifacts,
		SubmittedAt:  nsTime(m.SubmittedAtNs),
		QueuedAt:     nsTime(m.QueuedAtNs),
		ClaimedAt:    nsTime(m.ClaimedAtNs),
		StartedAt:    nsTime(m.StartedAtNs),
		FinishedAt:   nsTime(m.FinishedAtNs),
	}, err == nil
}

// evictedRun reads a run that is not resident from the history store
// (found=false: no such run). It takes no server lock.
func (s *Server) evictedRun(id string) (p persistedRun, intact, found bool) {
	it, found := s.history.Get(id)
	if !found {
		return persistedRun{}, false, false
	}
	p, intact = s.storedRun(it)
	return p, intact, true
}

// RunQuery filters GET /v1/runs; zero fields match everything.
type RunQuery struct {
	Tenant   string
	Scenario string
	State    string
	// Since/Until bound SubmittedAt (inclusive; zero = unbounded).
	Since time.Time
	Until time.Time
	// Limit caps the page size (<= 0: unlimited, internal callers).
	Limit int
	// PageToken resumes after a previous page's NextPageToken.
	PageToken string
}

// RunPage is one page of runs plus the cursor for the next.
type RunPage struct {
	Runs          []Status `json:"runs"`
	NextPageToken string   `json:"next_page_token,omitempty"`
}

// QueryRuns serves the filtered, paginated run listing from the history
// store's indexes. Every admitted run has a history record (appended at
// submission), so the store is the authoritative listing; resident runs
// render their live status instead of the recorded one. The server mutex
// is held for those lookups only — never across the store's reads or a
// document decode — so a page costs its items and delays no submit.
func (s *Server) QueryRuns(q RunQuery) (RunPage, error) {
	page, err := s.history.Query(runstore.Query{
		Tenant: q.Tenant, Scenario: q.Scenario, State: q.State,
		Since: q.Since, Until: q.Until,
		Limit: q.Limit, PageToken: q.PageToken,
	})
	if err != nil {
		return RunPage{}, &APIError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	out := RunPage{Runs: make([]Status, len(page.Items)), NextPageToken: page.NextPageToken}
	s.mu.Lock()
	for i := range page.Items {
		if r := s.runs[page.Items[i].Meta.ID]; r != nil {
			out.Runs[i] = r.status()
		}
	}
	s.mu.Unlock()
	for i := range page.Items {
		if out.Runs[i].ID == "" { // not resident
			p, _ := s.storedRun(page.Items[i])
			out.Runs[i] = p.status()
		}
	}
	return out, nil
}
