// Package events is the campaign service's per-run event journal: a
// bounded ring buffer of lifecycle events per run, with monotonic event
// IDs and cursor-based subscriptions, feeding the coordinator's SSE
// stream (`GET /v1/runs/{id}/events`).
//
// The journal is built for the orchestrator's side of the bargain: a
// publish NEVER blocks on a consumer. Appending takes the run's ring
// lock, assigns the next ID, overwrites the oldest entry when the ring
// is full, and pokes each subscriber through a size-1 notify channel.
// A subscriber that polls too slowly simply misses the overwritten
// prefix — the gap is counted (dyflow_server_event_drops_total) and
// reported to the consumer, and the run is never slowed down.
//
// IDs are monotonic per run, starting at 1, within one journal *epoch*
// (one coordinator process). A restarted coordinator rebuilds journals
// from the run table with fresh IDs under a new epoch; the SSE layer
// compares epochs so a stale Last-Event-ID triggers a full replay of
// the retained events instead of silently skipping the terminal event.
package events

import (
	"sync"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/trace"
)

// Type classifies a run lifecycle event.
type Type string

// The event types, in rough lifecycle order.
const (
	TypeQueued       Type = "queued"        // entered the queue (Reason: "", "restore", "lease_expired", "missing_blob", "shutdown", "result_upload_failed")
	TypeClaimed      Type = "claimed"       // a worker took the run
	TypeRunning      Type = "running"       // execution started
	TypeProgress     Type = "progress"      // simulated time advanced (throttled)
	TypeSpan         Type = "span"          // a flight-recorder suggestion span completed
	TypeCacheHit     Type = "cache_hit"     // answered from the deterministic result cache
	TypeLeaseExpired Type = "lease_expired" // the executing worker's lease lapsed
	TypeDone         Type = "done"          // terminal: success
	TypeFailed       Type = "failed"        // terminal: error
	TypeCanceled     Type = "canceled"      // terminal: canceled
)

// Terminal reports whether the type ends a run's stream.
func (t Type) Terminal() bool {
	return t == TypeDone || t == TypeFailed || t == TypeCanceled
}

// Event is one entry in a run's journal. ID and Run are assigned by
// Append; the producer fills the rest.
type Event struct {
	ID   uint64    `json:"id"`
	Run  string    `json:"run"`
	Type Type      `json:"type"`
	At   time.Time `json:"at"`

	Worker     string      `json:"worker,omitempty"`
	Reason     string      `json:"reason,omitempty"`
	Error      string      `json:"error,omitempty"`
	SimSeconds float64     `json:"sim_seconds,omitempty"`
	Cached     bool        `json:"cached,omitempty"`
	Converged  bool        `json:"converged,omitempty"`
	Span       *trace.Span `json:"span,omitempty"`
}

// DefaultBuffer is the per-run ring capacity when the journal is
// created with capacity <= 0.
const DefaultBuffer = 256

// Journal holds one bounded event ring per run.
type Journal struct {
	cap   int
	epoch int64

	mu   sync.Mutex
	runs map[string]*runLog

	published   *obs.CounterVec // dyflow_server_events_total{type}
	drops       *obs.Counter    // dyflow_server_event_drops_total
	subscribers *obs.Gauge      // dyflow_server_event_subscribers
}

type runLog struct {
	mu    sync.Mutex
	next  uint64  // next ID to assign (IDs start at 1)
	buf   []Event // ring storage, len <= cap
	start int     // index of the oldest retained event
	subs  map[*Sub]struct{}
}

// NewJournal creates a journal with the given per-run ring capacity
// (DefaultBuffer when <= 0), registering its metric families in reg.
func NewJournal(capacity int, reg *obs.Registry) *Journal {
	if capacity <= 0 {
		capacity = DefaultBuffer
	}
	return &Journal{
		cap:   capacity,
		epoch: time.Now().UnixNano(),
		runs:  make(map[string]*runLog),
		published: reg.Counter("dyflow_server_events_total",
			"Run lifecycle events published to per-run journals.", "type"),
		drops: reg.Counter("dyflow_server_event_drops_total",
			"Journal events a subscriber missed because the bounded ring overwrote them.").With(),
		subscribers: reg.Gauge("dyflow_server_event_subscribers",
			"Live event-stream subscriptions.").With(),
	}
}

// Epoch identifies this journal instance; it changes across coordinator
// restarts. The SSE layer embeds it in event IDs so resume cursors from
// a previous process are recognized and answered with a full replay.
func (j *Journal) Epoch() int64 { return j.epoch }

// log resolves (or lazily creates) a run's ring — lazily so a client
// may subscribe before the run exists and still see its first event —
// and returns it locked, the lock taken before the journal's is let go:
// Sub.Close retires an empty ring under both, so never one in use.
func (j *Journal) log(run string) *runLog {
	j.mu.Lock()
	defer j.mu.Unlock()
	l, ok := j.runs[run]
	if !ok {
		l = &runLog{next: 1, subs: make(map[*Sub]struct{})}
		j.runs[run] = l
	}
	l.mu.Lock()
	return l
}

// Append assigns the next ID to ev, stamps Run (and At, if zero),
// stores it in the run's ring, and wakes subscribers. It never blocks
// on a consumer. The stored event is returned.
func (j *Journal) Append(run string, ev Event) Event {
	l := j.log(run)
	ev.ID = l.next
	l.next++
	ev.Run = run
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	if len(l.buf) < j.cap {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.start] = ev
		l.start = (l.start + 1) % j.cap
	}
	var subs []*Sub
	if len(l.subs) > 0 {
		subs = make([]*Sub, 0, len(l.subs))
		for s := range l.subs {
			subs = append(subs, s)
		}
	}
	l.mu.Unlock()
	j.published.With(string(ev.Type)).Inc()
	for _, s := range subs {
		select {
		case s.notify <- struct{}{}:
		default: // already poked; the pending Poll will see this event
		}
	}
	return ev
}

// Len returns how many events a run's ring currently retains (0 when
// the run has no ring). The server uses it to decide whether a
// history-evicted run still needs a synthesized terminal event.
func (j *Journal) Len(run string) int {
	j.mu.Lock()
	l := j.runs[run]
	j.mu.Unlock()
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Drop discards a run's ring (no-op when absent). Live subscribers keep
// their *runLog reference and simply see no further events; the server
// calls this when a terminal run ages out of the retained-ring window.
func (j *Journal) Drop(run string) {
	j.mu.Lock()
	delete(j.runs, run)
	j.mu.Unlock()
}

// Sub is one cursor-based subscription to a run's journal.
type Sub struct {
	j      *Journal
	run    string
	l      *runLog
	cursor uint64
	notify chan struct{}

	closeOnce sync.Once
}

// Subscribe opens a subscription delivering events with ID > after.
// after == 0 replays everything retained. An `after` at or beyond the
// next unassigned ID — a cursor from a previous journal epoch — also
// replays everything retained: after a coordinator restart IDs restart
// too, and at-least-once delivery of the terminal event beats silently
// waiting forever. Close the subscription when done.
func (j *Journal) Subscribe(run string, after uint64) *Sub {
	l := j.log(run)
	s := &Sub{j: j, run: run, l: l, cursor: after, notify: make(chan struct{}, 1)}
	if after >= l.next {
		s.cursor = 0
	}
	l.subs[s] = struct{}{}
	l.mu.Unlock()
	j.subscribers.Add(1)
	return s
}

// Notify returns the channel poked (non-blockingly) on each append.
// After draining it, call Poll.
func (s *Sub) Notify() <-chan struct{} { return s.notify }

// Poll returns the retained events past the cursor, in ID order, and
// advances the cursor. missed counts events that were overwritten
// before this subscriber saw them (also added to
// dyflow_server_event_drops_total); the stream can tell its consumer
// about the gap instead of silently skipping it.
func (s *Sub) Poll() (evs []Event, missed uint64) {
	s.l.mu.Lock()
	n := len(s.l.buf)
	if n > 0 {
		oldest := s.l.buf[s.l.start].ID
		if s.cursor+1 < oldest {
			missed = oldest - s.cursor - 1
			s.cursor = oldest - 1
		}
		if newest := oldest + uint64(n) - 1; newest > s.cursor {
			evs = make([]Event, 0, newest-s.cursor)
			for i := int(s.cursor + 1 - oldest); i < n; i++ {
				evs = append(evs, s.l.buf[(s.l.start+i)%n])
			}
			s.cursor = newest
		}
	}
	s.l.mu.Unlock()
	if missed > 0 {
		s.j.drops.Add(int64(missed))
	}
	return evs, missed
}

// Close detaches the subscription and, if it was the last one on a ring
// that never held an event, retires the ring: a stream on a run ID that
// never comes to exist costs the journal nothing. Safe to call twice.
func (s *Sub) Close() {
	s.closeOnce.Do(func() {
		s.j.mu.Lock()
		s.l.mu.Lock()
		delete(s.l.subs, s)
		if len(s.l.subs) == 0 && len(s.l.buf) == 0 && s.j.runs[s.run] == s.l {
			delete(s.j.runs, s.run)
		}
		s.l.mu.Unlock()
		s.j.mu.Unlock()
		s.j.subscribers.Add(-1)
	})
}
