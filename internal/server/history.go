package server

import (
	"net/http"
	"time"

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

// runMetaLocked builds r's history record: r.record plus the two fields
// only the store reads, the cache key and the artifact bytes, which cost a
// hash and a blob-store lookup and so stay off the status path. Caller
// holds the server mutex.
func (s *Server) runMetaLocked(r *Run) runstore.Meta {
	m := r.record()
	m.Key = r.Job.Key()
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
func (s *Server) historyAppendLocked(r *Run) error {
	err := s.history.Append(s.runMetaLocked(r), nil)
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
// is held for those lookups only, never across the store's query, so a
// page costs its items and delays no submit.
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
		if r := s.runs[page.Items[i].ID]; r != nil {
			out.Runs[i] = r.status()
		}
	}
	s.mu.Unlock()
	for i := range page.Items {
		if out.Runs[i].ID == "" { // not resident
			out.Runs[i] = recordStatus(&page.Items[i])
		}
	}
	return out, nil
}
