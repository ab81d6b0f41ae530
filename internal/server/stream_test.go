package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dyflow/internal/server/events"
	"dyflow/internal/trace"
)

// sseFrame is one decoded Server-Sent Events frame.
type sseFrame struct {
	id  string
	typ string
	ev  events.Event
}

// tailSSE reads a run's event stream until the terminal event arrives
// (the server closes the stream right after it) and returns every frame.
func tailSSE(t *testing.T, addr, runID, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/v1/runs/"+runID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	// No client timeout: the tail legitimately spans the run's lifetime.
	// The watchdog tears the body down if the terminal event never comes.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: %s", runID, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream %s content type %q", runID, ct)
	}
	watchdog := time.AfterFunc(30*time.Second, func() { resp.Body.Close() })
	defer watchdog.Stop()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var frames []sseFrame
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // frame boundary
			if cur.typ == "" {
				continue // comment-only frame
			}
			frames = append(frames, cur)
			if events.Type(cur.typ).Terminal() {
				return frames
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.ev); err != nil {
				t.Fatalf("stream %s: bad event payload: %v", runID, err)
			}
		}
	}
	// The server ends a stream only once everything up to the terminal
	// event was delivered — a clean close with no terminal frame means
	// the cursor had already consumed it (resume past the end).
	return frames
}

// TestStreamLifecycleOrdered tails a locally executed run over SSE and
// checks the lifecycle arrives in order with monotonic event IDs.
func TestStreamLifecycleOrdered(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	frames := tailSSE(t, addr, st.ID, "")
	if len(frames) == 0 {
		t.Fatal("stream delivered no frames")
	}

	order := map[string]int{}
	var lastID uint64
	for i, f := range frames {
		if f.ev.ID <= lastID {
			t.Fatalf("frame %d: event ID %d not monotonic (prev %d)", i, f.ev.ID, lastID)
		}
		lastID = f.ev.ID
		if _, seen := order[f.typ]; !seen {
			order[f.typ] = i
		}
		if f.ev.Run != st.ID {
			t.Fatalf("frame %d labeled run %q, want %q", i, f.ev.Run, st.ID)
		}
	}
	for _, seq := range [][2]string{{"queued", "claimed"}, {"claimed", "running"}, {"running", "done"}} {
		a, aok := order[seq[0]]
		b, bok := order[seq[1]]
		if !aok || !bok || a >= b {
			t.Fatalf("lifecycle out of order: want %s before %s in %v", seq[0], seq[1], order)
		}
	}
	last := frames[len(frames)-1]
	if last.typ != string(events.TypeDone) || last.ev.SimSeconds <= 0 || last.ev.Worker != "local" {
		t.Fatalf("terminal frame %+v", last.ev)
	}
	if !strings.HasPrefix(last.id, fmt.Sprintf("%d.", s.events.Epoch())) {
		t.Fatalf("frame id %q not qualified with epoch %d", last.id, s.events.Epoch())
	}
}

// TestStreamSubscribeBeforeRunExists opens the stream before the run is
// submitted: the lazily created journal must deliver the first event.
func TestStreamSubscribeBeforeRunExists(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The first submission gets run-000000; subscribe to it first.
	const futureID = "run-000000"
	got := make(chan []sseFrame, 1)
	go func() { got <- tailSSE(t, addr, futureID, "") }()
	time.Sleep(20 * time.Millisecond) // let the subscription attach

	st, err := s.Submit("alice", quick(7))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != futureID {
		t.Fatalf("first run got ID %s, want %s", st.ID, futureID)
	}
	select {
	case frames := <-got:
		if len(frames) == 0 {
			t.Fatal("early subscriber's stream closed without frames")
		}
		if frames[0].typ != string(events.TypeQueued) {
			t.Fatalf("first event %s, want queued", frames[0].typ)
		}
		if last := frames[len(frames)-1]; last.typ != string(events.TypeDone) {
			t.Fatalf("terminal event %s, want done", last.typ)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("early subscriber never saw the run's events")
	}
}

// TestStreamResumeAcrossRestart kills the coordinator between a client's
// first tail and its reconnect. The stale Last-Event-ID carries the old
// journal epoch, so the new process must answer with a full replay that
// still ends in the terminal event.
func TestStreamResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: -1, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit("alice", quick(11))
	if err != nil {
		t.Fatal(err)
	}
	// No local pool: the run stays queued, so the only event is queued.
	sub := s1.events.Subscribe(st.ID, 0)
	evs, _ := sub.Poll()
	sub.Close()
	if len(evs) != 1 || evs[0].Type != events.TypeQueued {
		t.Fatalf("pre-kill journal: %+v", evs)
	}
	staleCursor := fmt.Sprintf("%d.%d", s1.events.Epoch(), evs[0].ID)
	s1.Close() // kill

	s2, err := New(Config{Workers: 2, CkptDir: dir, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.events.Epoch() == s1.events.Epoch() {
		t.Fatal("restarted journal kept the old epoch")
	}

	// Resuming with the dead process's cursor must replay everything the
	// new journal retains, terminal event included — even if the run
	// already finished by the time the client reconnects.
	await(t, s2, st.ID)
	frames := tailSSE(t, addr, st.ID, staleCursor)
	if len(frames) == 0 {
		t.Fatal("stale cursor got no replay")
	}
	if frames[0].typ != string(events.TypeQueued) || frames[0].ev.Reason != "restore" {
		t.Fatalf("replay starts with %+v, want queued(restore)", frames[0].ev)
	}
	last := frames[len(frames)-1]
	if last.typ != string(events.TypeDone) || last.ev.SimSeconds <= 0 {
		t.Fatalf("replay terminal frame %+v", last.ev)
	}

	// A current-epoch cursor past the terminal event resumes to an
	// immediate clean close with nothing replayed.
	again := tailSSE(t, addr, st.ID, last.id)
	if len(again) != 0 {
		t.Fatalf("resume past terminal replayed %d frames", len(again))
	}
}

// TestStreamSlowConsumerDrops floods a tiny ring past a subscriber that
// never polls: the run must finish unimpeded, the overwritten prefix is
// counted in dyflow_server_event_drops_total, and the survivors keep
// monotonic IDs.
func TestStreamSlowConsumerDrops(t *testing.T) {
	s, err := New(Config{Workers: 2, EventBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit("alice", quick(13))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.events.Subscribe(st.ID, 0)
	defer sub.Close()

	if got := await(t, s, st.ID); got.State != StateDone {
		t.Fatalf("run ended %s with a stalled subscriber attached", got.State)
	}
	// The subscriber never polled; overflow the 4-slot ring on top of the
	// lifecycle events through the worker-span ingestion path.
	spans := make([]trace.SpanRecord, 8)
	for i := range spans {
		spans[i] = trace.Span{Workflow: "W", Policy: "P", Seq: i + 1}.Record()
	}
	s.appendWorkerSpans(st.ID, "w-test", spans)

	evs, missed := sub.Poll()
	if missed == 0 {
		t.Fatal("slow consumer reported no missed events after ring overrun")
	}
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].ID != evs[i-1].ID+1 {
			t.Fatalf("retained suffix not contiguous: %+v", evs)
		}
	}
	if v, _ := s.reg.Value("dyflow_server_event_drops_total"); v < float64(missed) {
		t.Fatalf("dyflow_server_event_drops_total = %v, want >= %d", v, missed)
	}
}

// TestStreamCachedRunReplay tails a cache-hit run: the stream is pure
// replay (cache_hit then done) and closes immediately.
func TestStreamCachedRunReplay(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Submit("alice", quick(17))
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, first.ID)
	dup, err := s.Submit("bob", quick(17))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached {
		t.Fatalf("duplicate not served from cache: %+v", dup)
	}

	frames := tailSSE(t, addr, dup.ID, "")
	var types []string
	for _, f := range frames {
		types = append(types, f.typ)
	}
	if len(frames) != 2 || types[0] != string(events.TypeCacheHit) || types[1] != string(events.TypeDone) {
		t.Fatalf("cached run stream %v, want [cache_hit done]", types)
	}
	if !frames[1].ev.Cached {
		t.Fatalf("terminal event of cached run not marked cached: %+v", frames[1].ev)
	}
	if frames[0].ev.Reason != first.ID {
		t.Fatalf("cache_hit reason %q, want source run %s", frames[0].ev.Reason, first.ID)
	}
}

// TestStreamEventsFollowTheirRecord pins the order on the one log: a
// transition's record is appended before its event is published, so a
// subscriber that has just been handed queued / running / done finds at
// least that state in the history store — a delivered done is a durable
// done. Every run after the first is a cache hit, finished inside Submit.
func TestStreamEventsFollowTheirRecord(t *testing.T) {
	s, err := New(Config{Workers: 1, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rank := map[string]int{"queued": 1, "running": 2, "done": 3}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("run-%06d", i)
		sub := s.events.Subscribe(id, 0) // before the run exists: the ring is lazy
		verdict := make(chan error, 1)
		go func() {
			defer sub.Close()
			for range sub.Notify() {
				evs, _ := sub.Poll()
				for _, ev := range evs {
					want, tracked := rank[string(ev.Type)]
					if !tracked {
						continue
					}
					if m, _ := s.History().GetMeta(id); rank[m.State] < want {
						verdict <- fmt.Errorf("%s: event %s delivered while the store holds %q", id, ev.Type, m.State)
						return
					}
					if ev.Type == events.TypeDone {
						verdict <- nil
						return
					}
				}
			}
		}()
		if st, err := s.Submit("alice", quick(5)); err != nil || st.ID != id {
			t.Fatalf("submit %d: %v (%s)", i, err, st.ID)
		}
		select {
		case err := <-verdict:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no done event", id)
		}
	}
}
