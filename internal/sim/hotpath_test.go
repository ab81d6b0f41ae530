package sim

// Regression tests for the kernel hot-path work: the Run(until) drain-stall
// fix, eager cancel removal (bounded heap, O(1) Pending), at-most-one
// pending interrupt, and batched queue draining.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRunAdvancesToHorizonOnDrain: when the event queue drains before the
// horizon, the clock must still advance to until — a tick-stepped driver
// loop (exp's World.drive) otherwise under-reports sim time during idle
// windows.
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

// TestCancelHeavyHeapBounded: a process sleeping on a long timer and woken
// by an Interrupt every millisecond cancels one timer per wake. With eager
// removal the schedule stays a few events deep instead of accumulating one
// tombstone per iteration.
func TestCancelHeavyHeapBounded(t *testing.T) {
	s := New(1)
	const iters = 5000
	maxPending := 0
	sleeper := s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < iters; i++ {
			if err := p.Sleep(time.Hour); !Interrupted(err) {
				t.Errorf("wake %d = %v; the interrupt should always win", i, err)
				return
			}
		}
	})
	s.Spawn("interrupter", func(p *Proc) {
		for i := 0; i < iters; i++ {
			if p.Sleep(time.Millisecond) != nil {
				return
			}
			sleeper.Interrupt(nil)
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
	e1 := s.newEvent(time.Second) // a process's timer, as Sleep arms it
	s.After(2*time.Second, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	s.cancelInternal(e1)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancel, want 1", got)
	}
}

// TestDoubleInterruptRunnable: once a process has been claimed for a wake
// (made runnable), it retains at most ONE additional pending interrupt;
// further causes are reported dropped. Three interrupts at one instant: the
// first rides the wake, the second parks as pending, the third is dropped.
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
}

// causeError is a typed interrupt cause for errors.As.
type causeError struct{ code int }

func (e *causeError) Error() string { return fmt.Sprintf("cause %d", e.code) }

// TestInterruptErrorEqualsErrorf: an interrupt with a cause reads as
// fmt.Errorf("%w: %w", ErrInterrupted, cause) does — the same text, and
// errors.Is and errors.As find the same errors in it — and one without a
// cause is ErrInterrupted itself.
func TestInterruptErrorEqualsErrorf(t *testing.T) {
	s := New(1)
	cause := &causeError{code: 137}
	var got, bare error
	target := s.Spawn("target", func(p *Proc) {
		got = p.Sleep(time.Hour)
		bare = p.Sleep(time.Hour)
	})
	s.At(time.Second, func() { target.Interrupt(cause) })
	s.At(2*time.Second, func() { target.Interrupt(nil) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Errorf("%w: %w", ErrInterrupted, cause)
	if got.Error() != want.Error() {
		t.Errorf("text %q, want %q", got, want)
	}
	for _, target := range []error{ErrInterrupted, cause, ErrStopped, errors.New("sim: interrupted")} {
		if errors.Is(got, target) != errors.Is(want, target) {
			t.Errorf("errors.Is(%v) = %v, want %v", target, errors.Is(got, target), errors.Is(want, target))
		}
	}
	var ce *causeError
	if !errors.As(got, &ce) || ce != cause {
		t.Errorf("errors.As found %v, want the cause", ce)
	}
	if bare != ErrInterrupted {
		t.Errorf("an interrupt without a cause = %v, want ErrInterrupted", bare)
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
	q := NewQueue[int](0)
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

// TestWaitBroadcastAllocatesNothing: a Wait registers the process on the
// signal itself, not through a cancel closure, so a Wait/Broadcast round
// trip — what every blocking Queue.Get/GetAll pays — allocates nothing.
func TestWaitBroadcastAllocatesNothing(t *testing.T) {
	s := New(1)
	sig := NewSignal()
	wakes := 0
	s.Spawn("waiter", func(p *Proc) {
		for p.Wait(sig) == nil {
			wakes++
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		sig.Broadcast()
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Wait/Broadcast round trip allocates %v times, want 0", n)
	}
	if wakes != 101 {
		t.Fatalf("waiter woke %d times, want 101", wakes)
	}
}

// TestDrainedQueueReusesArray: a queue read one item at a time — a put,
// then a take that empties it — reuses its array: taking the last item
// restarts the queue at the array's front instead of leaving it no room,
// so the next put does not grow a fresh array.
func TestDrainedQueueReusesArray(t *testing.T) {
	s := New(1)
	q := NewQueue[int](0)
	got := 0
	s.Spawn("reader", func(p *Proc) {
		for {
			v, err := q.Get(p)
			if err != nil {
				return
			}
			got = v
		}
	})
	put := func() {
		q.TryPut(got + 1)
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if _, ok := q.TryGet(); ok {
			t.Fatal("the reader left an item queued")
		}
	}
	put()
	if n := testing.AllocsPerRun(100, put); n != 0 {
		t.Errorf("a put and the take that drains it allocate %v times, want 0", n)
	}
	if got != 102 {
		t.Fatalf("reader took %d items, want 102", got)
	}
}
