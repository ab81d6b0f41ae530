package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dyflow/internal/server/events"
	"dyflow/internal/trace"
)

// GET /v1/runs/{id}/events — the live observation half of the steering
// loop: one run's lifecycle as a Server-Sent Events stream
// (queued → claimed → running → progress/span → done|failed|canceled,
// with lease expiries, requeues, and cache hits in between).
//
// Each frame carries `id: <epoch>.<seq>` — seq is the run's monotonic
// event ID, epoch identifies the coordinator process. A reconnecting
// client sends the last ID back in the standard `Last-Event-ID` header
// (or `?after=`): same epoch resumes after seq; a different epoch (the
// coordinator restarted, seqs restarted with it) replays every retained
// event, so the terminal event is delivered at-least-once rather than
// lost. The stream ends after a terminal event; a slow consumer that
// falls out of the bounded ring gets a comment frame noting the gap
// (counted in dyflow_server_event_drops_total) — the run is never
// slowed down.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, &APIError{Code: http.StatusInternalServerError, Msg: "streaming unsupported"})
		return
	}
	id := r.PathValue("id")
	cursor := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("after"); q != "" {
		cursor = q
	}
	after := s.parseEventCursor(cursor)

	s.ensureTerminalEvent(id)
	sub := s.events.Subscribe(id, after)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	epoch := s.events.Epoch()
	for {
		// Read the run's state BEFORE polling: if the terminal event was
		// already published, the poll below is guaranteed to include it
		// (finishLocked publishes under the same mutex this read takes),
		// so observing `terminal && nothing new` means everything was
		// delivered and the stream can end.
		terminal := s.runTerminal(id)
		evs, missed := sub.Poll()
		if missed > 0 {
			fmt.Fprintf(w, ": %d earlier events dropped (ring overrun)\n\n", missed)
		}
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				s.logf("server: encode event %s/%d: %v", id, ev.ID, err)
				continue
			}
			fmt.Fprintf(w, "id: %d.%d\nevent: %s\ndata: %s\n\n", epoch, ev.ID, ev.Type, data)
			if ev.Type.Terminal() {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		if terminal && len(evs) == 0 {
			return // fully delivered in an earlier iteration (or resumed past it)
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stopped:
			return
		case <-sub.Notify():
		}
	}
}

// parseEventCursor turns a Last-Event-ID (or ?after=) value into a
// resume sequence. "<epoch>.<seq>" from a previous coordinator process
// (epoch mismatch) maps to 0 — replay everything retained. A bare
// integer is treated as a current-epoch sequence (the curl-friendly
// form). Garbage maps to 0.
func (s *Server) parseEventCursor(v string) uint64 {
	if v == "" {
		return 0
	}
	if dot := strings.IndexByte(v, '.'); dot >= 0 {
		epoch, err := strconv.ParseInt(v[:dot], 10, 64)
		if err != nil || epoch != s.events.Epoch() {
			return 0
		}
		v = v[dot+1:]
	}
	seq, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return seq
}

// runTerminal reports whether a run exists and is in a terminal state.
func (s *Server) runTerminal(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, _, ok := s.viewLocked(id, nil)
	return ok && m.Terminal
}

// ensureTerminalEvent backfills the terminal event for a run that
// finished before this coordinator process started (restored straight
// into the history store, so no ring exists). A subscriber arriving
// across the restart still receives the terminal frame — synthesized
// from the history record with Reason "restore" — instead of waiting
// forever. Runs with a live ring — every resident run, and an evicted
// one while its ring is retained — are untouched.
func (s *Server) ensureTerminalEvent(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events.Len(id) > 0 {
		return
	}
	m, _, ok := s.viewLocked(id, nil)
	if !ok || !m.Terminal {
		return
	}
	state := RunState(m.State)
	ev := events.Event{
		Type:      terminalEventType(state),
		Reason:    "restore",
		At:        nsTime(m.FinishedAtNs),
		Cached:    m.Cached,
		Converged: m.Converged,
		Error:     m.Error,
	}
	if state == StateDone {
		ev.SimSeconds = time.Duration(m.SimEndNs).Seconds()
	}
	s.events.Append(id, ev)
	s.retainRingLocked(doneRing{run: id})
}

// appendWorkerSpans publishes the flight-recorder spans a worker forwarded
// (in a heartbeat or with its result) into the run's stream. The events
// point into spans: a forwarded batch is the coordinator's to keep.
func (s *Server) appendWorkerSpans(runID, workerID string, spans []trace.SpanRecord) {
	for i := range spans {
		s.events.Append(runID, events.Event{Type: events.TypeSpan, Worker: workerID, Span: &spans[i]})
	}
}
