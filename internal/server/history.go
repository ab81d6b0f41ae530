package server

import (
	"net/http"
	"sync"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/runstore"
)

// maxTerminalRings bounds how many evicted terminal runs keep their SSE
// event rings for replay and their completing lease for result dedup.
const maxTerminalRings = 1024

// nsTime renders a record's phase timestamp (0: never happened).
func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// historyAppendLocked records r's current state, its Meta, in the
// run-history store — the acknowledging write: callers make it before they
// publish the transition's event or answer 2xx. Caller holds the server
// mutex (the store has its own lock; s.mu → store is the only allowed
// order). A failure is logged here and counted by the store
// (dyflow_runstore_append_errors_total); Submit refuses on it, every
// other transition proceeds and the run stays resident — its Meta still
// the current state, which viewLocked reads first — until a later append
// records it.
func (s *Server) historyAppendLocked(r *Run) error {
	err := s.history.Append(r.Meta, nil)
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
type RunQuery = runstore.Query

// RunPage is one page of runs plus the cursor for the next: the body of
// GET /v1/runs, which serveRunList writes without building one.
type RunPage struct {
	Runs          []Status `json:"runs"`
	NextPageToken string   `json:"next_page_token,omitempty"`
}

// viewLocked is the one read of a run's state that knows both tables: the
// run's current record and the virtual progress its status shows. The
// resident map comes first — a resident run's Meta is its current state by
// construction, even when its last append failed — and any other run is
// what the index holds: indexed, the entry a caller folding the index
// already has, or a lookup when that is nil. ok=false: no such run. The
// record is read-only, and valid while the caller holds the server mutex.
func (s *Server) viewLocked(id string, indexed *runstore.Meta) (m *runstore.Meta, simNs int64, ok bool) {
	if r := s.runs[id]; r != nil {
		return &r.Meta, r.progressNs(), true
	}
	if indexed == nil {
		found, ok := s.history.GetMeta(id)
		if !ok {
			return nil, 0, false
		}
		indexed = &found
	}
	return indexed, indexed.SimEndNs, true
}

// listBuf is what one GET /v1/runs reuses across requests: the page's
// records, their progress and the response body.
type listBuf struct {
	metas []runstore.Meta
	sims  []int64
	body  []byte
}

var listBufs = sync.Pool{New: func() any { return new(listBuf) }}

// serveRunList answers GET /v1/runs from the history store's indexes.
// Every admitted run has a history record (appended at submission), so the
// store is the authoritative listing, and viewLocked overlays each item's
// current state. The server mutex is held for those lookups only — never
// across the store's query or the rendering — so a page costs its items and
// delays no submit. The body is written straight from the records into a
// pooled buffer (appendRunPage), so a warm request allocates the same
// whatever its limit.
func (s *Server) serveRunList(w http.ResponseWriter, q RunQuery) {
	lb := listBufs.Get().(*listBuf)
	defer func() {
		clear(lb.metas) // a pooled buffer keeps no record alive
		listBufs.Put(lb)
	}()
	page, err := s.history.AppendQuery(lb.metas[:0], q)
	lb.metas = page.Items
	if err != nil {
		httpError(w, &APIError{Code: http.StatusBadRequest, Msg: err.Error()})
		return
	}
	metas, sims := page.Items, lb.sims[:0]
	s.mu.Lock()
	for i := range metas {
		m, simNs, _ := s.viewLocked(metas[i].ID, &metas[i])
		metas[i] = *m
		sims = append(sims, simNs)
	}
	s.mu.Unlock()
	lb.sims = sims
	lb.body = appendRunPage(lb.body[:0], metas, sims, page.NextPageToken)
	s.writeBody(w, http.StatusOK, lb.body)
}

// appendRunPage appends the RunPage of metas' recordStatus views, each
// showing its sims entry of progress, and the cursor next, as
// json.Encoder writes it: compact, ending in a newline.
func appendRunPage(dst []byte, metas []runstore.Meta, sims []int64, next string) []byte {
	dst = append(dst, `{"runs":[`...)
	for i := range metas {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStatus(dst, &metas[i], sims[i])
	}
	dst = append(dst, ']')
	if next != "" {
		dst = append(dst, `,"next_page_token":`...)
		dst = obs.AppendString(dst, next)
	}
	return append(dst, "}\n"...)
}
