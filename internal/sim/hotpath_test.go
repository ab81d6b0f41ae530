package sim

// Regression tests for the kernel hot-path work: the Run(until) drain-stall
// fix, eager cancel removal (bounded heap, O(1) Pending), pooled-event
// handle safety, interrupt-loss accounting, and batched queue draining.

import (
	"errors"
	"testing"
	"time"
)

// TestRunAdvancesToHorizonOnDrain: when the event queue drains before the
// horizon, the clock must still advance to until — stepped drivers
// (exp.ChaosRun.Step) otherwise under-report sim time during idle windows.
func TestRunAdvancesToHorizonOnDrain(t *testing.T) {
	s := New(1)
	fired := false
	s.At(1*time.Second, func() { fired = true })
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("clock stalled at %v after drain, want 10s", s.Now())
	}
	// An entirely idle window must advance too.
	if err := s.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 25*time.Second {
		t.Fatalf("idle window left clock at %v, want 25s", s.Now())
	}
	// A horizon in the past never moves the clock backwards.
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 25*time.Second {
		t.Fatalf("past horizon moved clock to %v, want 25s", s.Now())
	}
}

// TestCancelHeavyHeapBounded: WaitTimeout loops whose signal always wins
// cancel one timer per wake. With eager removal the schedule stays a few
// events deep instead of accumulating one tombstone per iteration.
func TestCancelHeavyHeapBounded(t *testing.T) {
	s := New(1)
	sig := NewSignal(s)
	const iters = 5000
	maxPending := 0
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < iters; i++ {
			fired, err := p.WaitTimeout(sig, time.Hour)
			if err != nil {
				return
			}
			if !fired {
				t.Error("timer fired; broadcast should always win")
				return
			}
		}
	})
	s.Spawn("broadcaster", func(p *Proc) {
		for i := 0; i < iters; i++ {
			if p.Sleep(time.Millisecond) != nil {
				return
			}
			sig.Broadcast()
			if n := s.Pending(); n > maxPending {
				maxPending = n
			}
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxPending > 8 {
		t.Fatalf("schedule grew to %d events under cancel-heavy load, want bounded (<= 8)", maxPending)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after idle, want 0", got)
	}
}

// TestPendingCountsLiveEventsOnly: Pending is an O(1) live count — a
// canceled event disappears from it immediately.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	s := New(1)
	e1 := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	e1.Cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancel, want 1", got)
	}
}

// TestStaleEventIDCancelIsInert: after an event fires, its pooled struct is
// recycled for a new event; the old handle's Cancel must not touch the new
// incarnation.
func TestStaleEventIDCancelIsInert(t *testing.T) {
	s := New(1)
	var stale EventID
	stale = s.After(time.Millisecond, func() {})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// The freed struct is recycled by the next scheduling call.
	fired := false
	fresh := s.After(time.Millisecond, func() { fired = true })
	if stale.Active() {
		t.Fatal("stale handle reports active")
	}
	stale.Cancel() // must not cancel the recycled event
	if !fresh.Active() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestDoubleInterruptRunnable: once a process has been claimed for a wake
// (made runnable), it retains at most ONE additional pending interrupt;
// further causes are reported dropped and recorded. Three interrupts at one
// instant: the first rides the wake, the second parks as pending, the third
// is dropped.
func TestDoubleInterruptRunnable(t *testing.T) {
	s := New(1)
	causeA := errors.New("cause-a")
	causeB := errors.New("cause-b")
	causeC := errors.New("cause-c")
	var first, second error
	target := s.Spawn("target", func(p *Proc) {
		first = p.Sleep(time.Hour)
		second = p.Sleep(time.Hour)
	})
	s.At(time.Second, func() {
		if !target.Interrupt(causeA) {
			t.Error("first interrupt (parked proc) should be delivered")
		}
		// The proc is now claimed/runnable: one pending slot remains.
		if !target.Interrupt(causeB) {
			t.Error("second interrupt should be retained as pending")
		}
		if target.Interrupt(causeC) {
			t.Error("third interrupt on a runnable proc should report dropped")
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(first, ErrInterrupted) || !errors.Is(first, causeA) {
		t.Fatalf("first wake = %v, want wrapped cause-a", first)
	}
	if !errors.Is(second, ErrInterrupted) || !errors.Is(second, causeB) {
		t.Fatalf("second block = %v, want wrapped cause-b", second)
	}
	if errors.Is(second, causeC) {
		t.Fatal("dropped cause must not be delivered")
	}
	if target.DroppedInterrupts() != 1 {
		t.Fatalf("DroppedInterrupts() = %d, want 1", target.DroppedInterrupts())
	}
	if le := target.LastDroppedInterrupt(); !errors.Is(le, causeC) {
		t.Fatalf("LastDroppedInterrupt() = %v, want wrapped cause-c", le)
	}
}

// TestInterruptBeforeFirstWakeAbortsStart: an Interrupt landing between
// Spawn and the process's first wake supersedes the start wake — the body
// never runs (the same contract as stopping before start) and the
// superseded wake event is removed from the schedule, not tombstoned.
func TestInterruptBeforeFirstWakeAbortsStart(t *testing.T) {
	s := New(1)
	ran := false
	p := s.Spawn("late-riser", func(p *Proc) { ran = true })
	if !p.Interrupt(errors.New("early")) {
		t.Fatal("interrupt before first wake should be accepted")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after supersede, want 1 (old wake removed eagerly)", got)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("body ran despite pre-start interrupt")
	}
	if !p.Done() {
		t.Fatal("process did not terminate")
	}
}

// TestQueueGetAllDrainsBurstInOneHandoff: N same-instant puts are consumed
// by a single GetAll wake — one kernel→proc handoff for the whole burst.
func TestQueueGetAllDrainsBurstInOneHandoff(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	const burst = 64
	s.At(time.Second, func() {
		for i := 0; i < burst; i++ {
			if !q.TryPut(i) {
				t.Error("unbounded TryPut refused")
			}
		}
	})
	var got []int
	var consumerHandoffs uint64
	s.Spawn("consumer", func(p *Proc) {
		before := s.Handoffs()
		items, err := q.GetAll(p, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got = items
		consumerHandoffs = s.Handoffs() - before
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != burst {
		t.Fatalf("GetAll returned %d items, want %d", len(got), burst)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO order)", i, v, i)
		}
	}
	if consumerHandoffs != 1 {
		t.Fatalf("burst cost %d handoffs, want 1", consumerHandoffs)
	}
	// The buffer recycles: a second round appends into the same backing.
	buf := got[:0]
	s.At(s.Now()+time.Second, func() { q.TryPut(99) })
	s.Spawn("consumer2", func(p *Proc) {
		items, err := q.GetAll(p, buf)
		if err != nil {
			t.Error(err)
			return
		}
		if len(items) != 1 || items[0] != 99 {
			t.Errorf("recycled GetAll = %v, want [99]", items)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchHandoffCounters: the kernel accounting behind events/s and
// handoffs/op
// — every executed event counts once, every baton transfer once.
func TestDispatchHandoffCounters(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Sleep(time.Millisecond)
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 10 plain events + spawn wake + 2 timer wakes = 13 dispatches.
	if got := s.Dispatched(); got != 13 {
		t.Fatalf("Dispatched() = %d, want 13", got)
	}
	// spawn wake + 2 sleeps = 3 handoffs.
	if got := s.Handoffs(); got != 3 {
		t.Fatalf("Handoffs() = %d, want 3", got)
	}
}
