package events

import (
	"fmt"
	"sync"
	"testing"

	"dyflow/internal/obs"
)

func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	v, _ := reg.Value(name)
	return v
}

func TestAppendAssignsMonotonicIDs(t *testing.T) {
	reg := obs.NewRegistry()
	j := NewJournal(8, reg)
	for i := 1; i <= 3; i++ {
		ev := j.Append("run-0", Event{Type: TypeProgress})
		if ev.ID != uint64(i) {
			t.Fatalf("event %d got ID %d", i, ev.ID)
		}
		if ev.Run != "run-0" || ev.At.IsZero() {
			t.Fatalf("append did not stamp run/time: %+v", ev)
		}
	}
	// Independent runs number independently.
	if ev := j.Append("run-1", Event{Type: TypeQueued}); ev.ID != 1 {
		t.Fatalf("second run's first event got ID %d", ev.ID)
	}
	if got := counterValue(t, reg, "dyflow_server_events_total"); got != 4 {
		t.Fatalf("events_total = %v, want 4", got)
	}
}

func TestSubscribeResumeAndReplay(t *testing.T) {
	j := NewJournal(16, obs.NewRegistry())
	for i := 0; i < 5; i++ {
		j.Append("r", Event{Type: TypeProgress})
	}

	// Resume past a prefix.
	s := j.Subscribe("r", 3)
	defer s.Close()
	evs, missed := s.Poll()
	if missed != 0 || len(evs) != 2 || evs[0].ID != 4 || evs[1].ID != 5 {
		t.Fatalf("resume from 3: evs=%v missed=%d", evs, missed)
	}

	// A cursor at or beyond the next ID (stale epoch) replays everything.
	s2 := j.Subscribe("r", 99)
	defer s2.Close()
	evs, missed = s2.Poll()
	if missed != 0 || len(evs) != 5 || evs[0].ID != 1 {
		t.Fatalf("stale-cursor replay: evs=%v missed=%d", evs, missed)
	}
}

func TestRingOverrunCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	j := NewJournal(4, reg)
	s := j.Subscribe("r", 0)
	defer s.Close()
	for i := 0; i < 10; i++ {
		j.Append("r", Event{Type: TypeProgress})
	}
	evs, missed := s.Poll()
	if missed != 6 {
		t.Fatalf("missed = %d, want 6", missed)
	}
	if len(evs) != 4 || evs[0].ID != 7 || evs[3].ID != 10 {
		t.Fatalf("retained suffix = %v", evs)
	}
	if got := counterValue(t, reg, "dyflow_server_event_drops_total"); got != 6 {
		t.Fatalf("event_drops_total = %v, want 6", got)
	}
	// Nothing new: Poll is idempotent at the tail.
	if evs, missed = s.Poll(); len(evs) != 0 || missed != 0 {
		t.Fatalf("second poll returned %v/%d", evs, missed)
	}
}

func TestSubscribeBeforeRunExists(t *testing.T) {
	reg := obs.NewRegistry()
	j := NewJournal(8, reg)
	s := j.Subscribe("not-yet", 0)
	defer s.Close()
	if evs, _ := s.Poll(); len(evs) != 0 {
		t.Fatalf("empty run yielded events: %v", evs)
	}
	j.Append("not-yet", Event{Type: TypeQueued})
	select {
	case <-s.Notify():
	default:
		t.Fatal("append did not notify the pre-existing subscriber")
	}
	evs, _ := s.Poll()
	if len(evs) != 1 || evs[0].Type != TypeQueued {
		t.Fatalf("got %v", evs)
	}
	if got := reg.Snapshot(); got.Metrics == nil {
		t.Fatal("registry snapshot empty")
	}
}

func TestSubscriberGaugeAndClose(t *testing.T) {
	reg := obs.NewRegistry()
	j := NewJournal(8, reg)
	s := j.Subscribe("r", 0)
	if got := counterValue(t, reg, "dyflow_server_event_subscribers"); got != 1 {
		t.Fatalf("subscribers = %v, want 1", got)
	}
	s.Close()
	s.Close() // idempotent
	if got := counterValue(t, reg, "dyflow_server_event_subscribers"); got != 0 {
		t.Fatalf("subscribers after close = %v, want 0", got)
	}
	// A closed subscriber no longer receives notifications.
	j.Append("r", Event{Type: TypeQueued})
	select {
	case <-s.Notify():
		t.Fatal("closed subscriber was notified")
	default:
	}
}

func TestTerminalClassification(t *testing.T) {
	for typ, want := range map[Type]bool{
		TypeQueued: false, TypeClaimed: false, TypeRunning: false,
		TypeProgress: false, TypeSpan: false, TypeCacheHit: false,
		TypeLeaseExpired: false,
		TypeDone:         true, TypeFailed: true, TypeCanceled: true,
	} {
		if typ.Terminal() != want {
			t.Fatalf("%s.Terminal() = %v, want %v", typ, !want, want)
		}
	}
}

// TestConcurrentAppendPoll exercises the publish/poll paths under the
// race detector: publishers must never block, subscribers must observe
// a gap-free or gap-counted ID sequence.
func TestConcurrentAppendPoll(t *testing.T) {
	j := NewJournal(32, obs.NewRegistry())
	const producers, perProducer = 4, 200

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				j.Append("r", Event{Type: TypeProgress, Worker: fmt.Sprintf("w%d", p)})
			}
		}(p)
	}

	s := j.Subscribe("r", 0)
	defer s.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var seen, missed uint64
	var last uint64
	for {
		evs, m := s.Poll()
		missed += m
		for _, ev := range evs {
			if ev.ID <= last {
				t.Errorf("IDs went backwards: %d after %d", ev.ID, last)
			}
			last = ev.ID
			seen++
		}
		select {
		case <-done:
			evs, m := s.Poll()
			missed += m
			seen += uint64(len(evs))
			if total := seen + missed; total != producers*perProducer {
				t.Fatalf("seen %d + missed %d = %d, want %d", seen, missed, total, producers*perProducer)
			}
			return
		case <-s.Notify():
		}
	}
}

// TestCloseRetiresEmptyRing: a stream on a run ID that never comes to exist
// costs the journal nothing once it is closed — any client can name any ID,
// so a ring per name would grow without bound. A ring somebody still
// listens on, or that holds an event, stays.
func TestCloseRetiresEmptyRing(t *testing.T) {
	j := NewJournal(8, obs.NewRegistry())
	rings := func() int {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.runs)
	}
	for i := 0; i < 10000; i++ {
		j.Subscribe(fmt.Sprint("no-such-run-", i), 0).Close()
	}
	if n := rings(); n != 0 {
		t.Fatalf("10000 subscribe+close on unknown runs left %d rings", n)
	}

	first, second := j.Subscribe("shared", 0), j.Subscribe("shared", 0)
	first.Close()
	first.Close()
	if n := rings(); n != 1 {
		t.Fatalf("a ring with a subscriber left was retired (%d rings)", n)
	}
	j.Append("shared", Event{Type: TypeQueued})
	if evs, _ := second.Poll(); len(evs) != 1 {
		t.Fatalf("the remaining subscriber saw %d events, want 1", len(evs))
	}
	second.Close()
	if n := rings(); n != 1 {
		t.Fatalf("a ring holding an event was retired (%d rings)", n)
	}
}

// TestRetirementNeverLosesAnEvent: subscribers come and go on a run that
// does not exist yet while its first event is appended. Whichever ring the
// append and the retirements raced over, a subscriber arriving afterwards
// replays the event, and one that was attached when it landed was poked.
func TestRetirementNeverLosesAnEvent(t *testing.T) {
	j := NewJournal(8, obs.NewRegistry())
	for i := 0; i < 2000; i++ {
		run := fmt.Sprint("run-", i)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := j.Subscribe(run, 0)
					select {
					case <-stop:
						evs, _ := s.Poll()
						s.Close()
						if len(evs) != 1 {
							t.Errorf("%s: a subscriber open once the append had returned polled %d events", run, len(evs))
						}
						return
					default:
						s.Close()
					}
				}
			}()
		}
		j.Append(run, Event{Type: TypeQueued})
		close(stop)
		wg.Wait()
		later := j.Subscribe(run, 0)
		evs, _ := later.Poll()
		later.Close()
		if len(evs) != 1 || evs[0].ID != 1 {
			t.Fatalf("%s: a later subscriber replayed %v, want the one event", run, evs)
		}
	}
}
