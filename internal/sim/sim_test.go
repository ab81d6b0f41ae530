package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.After(time.Second, func() { ran = true })
	e.Cancel()
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestRunHorizon(t *testing.T) {
	s := New(1)
	ran := false
	s.After(10*time.Second, func() { ran = true })
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
	if err := s.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event within extended horizon did not run")
	}
}

// Property: however events are scheduled, they execute in nondecreasing time
// order with FIFO tie-breaking.
func TestEventHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(42)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			at := Time(d) * time.Millisecond
			i := i
			s.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		if err := s.RunUntilIdle(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		}) {
			return false
		}
		// No reordering happened: the sequence is already sorted in place.
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wokeAt Time
	s.Spawn("sleeper", func(p *Proc) {
		if err := p.Sleep(7 * time.Second); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		wokeAt = p.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 7*time.Second {
		t.Fatalf("woke at %v, want 7s", wokeAt)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var trace []string
	mk := func(name string, period time.Duration, n int) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				if err := p.Sleep(period); err != nil {
					return
				}
				trace = append(trace, name)
			}
		})
	}
	mk("a", 2*time.Second, 3) // wakes at 2,4,6
	mk("b", 3*time.Second, 2) // wakes at 3,6
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// At t=6 both wake; b's timer was scheduled earlier (t=3 vs t=4), so
	// FIFO tie-breaking runs b first.
	want := []string{"a", "b", "a", "b", "a"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcInterruptDuringSleep(t *testing.T) {
	s := New(1)
	cause := errors.New("sigterm")
	var gotErr error
	var at Time
	p := s.Spawn("victim", func(p *Proc) {
		gotErr = p.Sleep(time.Hour)
		at = p.Now()
	})
	s.After(5*time.Second, func() { p.Interrupt(cause) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !Interrupted(gotErr) {
		t.Fatalf("err = %v, want interrupted", gotErr)
	}
	if !errors.Is(gotErr, cause) {
		t.Fatalf("err = %v, want wrapped cause", gotErr)
	}
	if at != 5*time.Second {
		t.Fatalf("interrupted at %v, want 5s", at)
	}
}

func TestProcPendingInterrupt(t *testing.T) {
	// An interrupt delivered while the process is runnable surfaces at its
	// next blocking call.
	s := New(1)
	var gotErr error
	var p *Proc
	p = s.Spawn("busy", func(pp *Proc) {
		pp.Sleep(time.Second) // runs; interrupt arrives at t=0 while parked? no: scheduled below
		p.Interrupt(nil)      // self-interrupt while runnable
		gotErr = pp.Sleep(time.Second)
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !Interrupted(gotErr) {
		t.Fatalf("err = %v, want interrupted", gotErr)
	}
}

func TestSleepUninterruptible(t *testing.T) {
	s := New(1)
	var finishedAt Time
	var gotErr error
	p := s.Spawn("worker", func(p *Proc) {
		gotErr = p.SleepUninterruptible(10 * time.Second)
		finishedAt = p.Now()
	})
	s.After(2*time.Second, func() { p.Interrupt(errors.New("kill")) })
	s.After(4*time.Second, func() { p.Interrupt(errors.New("kill2")) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if finishedAt != 10*time.Second {
		t.Fatalf("finished at %v, want full 10s", finishedAt)
	}
	if !Interrupted(gotErr) {
		t.Fatalf("err = %v, want first interrupt reported", gotErr)
	}
}

func TestJoin(t *testing.T) {
	s := New(1)
	child := s.Spawn("child", func(p *Proc) { p.Sleep(5 * time.Second) })
	var joinedAt Time
	s.Spawn("parent", func(p *Proc) {
		if err := p.Join(child); err != nil {
			t.Errorf("Join: %v", err)
		}
		joinedAt = p.Now()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != 5*time.Second {
		t.Fatalf("joined at %v, want 5s", joinedAt)
	}
}

func TestJoinAlreadyDone(t *testing.T) {
	s := New(1)
	child := s.Spawn("child", func(p *Proc) {})
	var ok bool
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		ok = p.Join(child) == nil
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("join on terminated process should return nil immediately")
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	s := New(1)
	sig := NewSignal(s)
	woke := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			if p.Wait(sig) == nil {
				woke++
			}
		})
	}
	s.After(time.Second, func() { sig.Broadcast() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := New(1)
	sig := NewSignal(s)
	var fired1, fired2 bool
	s.Spawn("timeout", func(p *Proc) {
		ok, err := p.WaitTimeout(sig, 2*time.Second)
		if err != nil {
			t.Errorf("WaitTimeout: %v", err)
		}
		fired1 = ok
	})
	s.Spawn("signaled", func(p *Proc) {
		ok, err := p.WaitTimeout(sig, 10*time.Second)
		if err != nil {
			t.Errorf("WaitTimeout: %v", err)
		}
		fired2 = ok
	})
	s.After(5*time.Second, func() { sig.Broadcast() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired1 {
		t.Fatal("first waiter should have timed out")
	}
	if !fired2 {
		t.Fatal("second waiter should have been signaled")
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			q.Put(p, i)
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, err := q.Get(p)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = append(got, v)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v, want FIFO 0..4", got)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 2)
	var putTimes []Time
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			if err := q.Put(p, i); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			putTimes = append(putTimes, p.Now())
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * time.Second)
			if _, err := q.Get(p); err != nil {
				t.Errorf("Get: %v", err)
				return
			}
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Items 0,1 go in immediately; item 2 waits for the first Get at t=10s,
	// item 3 for the second Get at t=20s.
	want := []Time{0, 0, 10 * time.Second, 20 * time.Second}
	for i := range want {
		if putTimes[i] != want[i] {
			t.Fatalf("putTimes = %v, want %v", putTimes, want)
		}
	}
}

func TestQueueClose(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 0)
	q.TryPut(1)
	q.TryPut(2)
	var drained []int
	var finalErr error
	s.Spawn("consumer", func(p *Proc) {
		for {
			v, err := q.Get(p)
			if err != nil {
				finalErr = err
				return
			}
			drained = append(drained, v)
		}
	})
	s.After(time.Second, func() { q.Close() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(drained) != 2 {
		t.Fatalf("drained %v, want both pre-close items", drained)
	}
	if !errors.Is(finalErr, ErrClosed) {
		t.Fatalf("final err = %v, want ErrClosed", finalErr)
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	s := New(1)
	r := NewResource(s, 4)
	var order []string
	// Hold all 4 units, then queue a big request followed by small ones.
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(10 * time.Second)
		r.Release(4)
	})
	s.Spawn("big", func(p *Proc) {
		p.Sleep(time.Second)
		if err := r.Acquire(p, 3); err != nil {
			t.Errorf("big acquire: %v", err)
			return
		}
		order = append(order, "big")
		p.Sleep(5 * time.Second)
		r.Release(3)
	})
	s.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Second)
		if err := r.Acquire(p, 1); err != nil {
			t.Errorf("small acquire: %v", err)
			return
		}
		order = append(order, "small")
		r.Release(1)
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small] (FIFO service)", order)
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after all releases, want 0", r.InUse())
	}
}

func TestResourceInterruptedWaiterLeavesQueue(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var blocked *Proc
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10 * time.Second)
		r.Release(2)
	})
	blocked = s.Spawn("blocked", func(p *Proc) {
		if err := r.Acquire(p, 1); !Interrupted(err) {
			t.Errorf("acquire err = %v, want interrupted", err)
		}
	})
	acquired := false
	s.Spawn("next", func(p *Proc) {
		p.Sleep(time.Second)
		if err := r.Acquire(p, 1); err != nil {
			t.Errorf("next acquire: %v", err)
			return
		}
		acquired = true
		r.Release(1)
	})
	s.After(2*time.Second, func() { blocked.Interrupt(errors.New("cancel")) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !acquired {
		t.Fatal("waiter behind an interrupted request never acquired")
	}
}

func TestStopWakesBlockedProcs(t *testing.T) {
	s := New(1)
	var gotErr error
	s.Spawn("stuck", func(p *Proc) {
		gotErr = p.Sleep(time.Hour)
	})
	s.After(time.Second, func() { s.Stop() })
	s.RunUntilIdle()
	if !errors.Is(gotErr, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", gotErr)
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	s := New(1)
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	err := s.RunUntilIdle()
	if err == nil {
		t.Fatal("expected simulation failure from panicking process")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		s := New(99)
		var trace []string
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i%26))
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			i := i
			s.Spawn(name, func(p *Proc) {
				p.Sleep(d)
				trace = append(trace, name+string(rune('0'+i%10)))
			})
		}
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestTryPutTryGetDrain(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s, 2)
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut within capacity should succeed")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut over capacity should fail")
	}
	if v, ok := q.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
	q.TryPut(3)
	got := q.Drain()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Drain = %v", got)
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty should fail")
	}
	q.Close()
	if q.TryPut(4) {
		t.Fatal("TryPut on closed queue should fail")
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New(1)
	r := NewResource(s, 4)
	if !r.TryAcquire(3) {
		t.Fatal("TryAcquire within capacity")
	}
	if r.TryAcquire(2) {
		t.Fatal("TryAcquire over availability should fail")
	}
	if !r.TryAcquire(0) {
		t.Fatal("TryAcquire(0) is trivially true")
	}
	r.Release(3)
	if r.InUse() != 0 || r.Available() != 4 {
		t.Fatalf("in use = %d, available = %d", r.InUse(), r.Available())
	}
	// A pending blocking waiter blocks TryAcquire (FIFO fairness).
	hold := s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(10 * time.Second)
		r.Release(4)
	})
	s.Spawn("waiter", func(p *Proc) { r.Acquire(p, 1); r.Release(1) })
	s.After(time.Second, func() {
		if r.TryAcquire(1) {
			t.Error("TryAcquire must not jump the FIFO queue")
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	_ = hold
}

func TestInterruptTerminatedProcIsNoop(t *testing.T) {
	s := New(1)
	p := s.Spawn("short", func(p *Proc) {})
	s.After(time.Second, func() { p.Interrupt(nil) }) // must not panic
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("proc should be done")
	}
}

func TestStopIdempotent(t *testing.T) {
	s := New(1)
	s.Spawn("stuck", func(p *Proc) { p.Sleep(time.Hour) })
	s.After(time.Second, func() {
		s.Stop()
		s.Stop() // second stop is a no-op
	})
	s.RunUntilIdle()
	if s.Pending() != 0 && !true {
		t.Fatal("unreachable")
	}
}

// TestStopIsTeardownNotSchedule: the resumes Stop performs to unwind
// blocked processes — parked on a timer, on a signal, in a queue, and one
// spawned but not yet started — leave the clock and both kernel counts
// where the schedule left them, and every process is gone afterwards.
func TestStopIsTeardownNotSchedule(t *testing.T) {
	s := New(1)
	sig := NewSignal(s)
	q := NewQueue[int](s, 0)
	procs := []*Proc{
		s.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) }),
		s.Spawn("waiter", func(p *Proc) { p.Wait(sig) }),
		s.Spawn("getter", func(p *Proc) { q.Get(p) }),
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	procs = append(procs, s.Spawn("unstarted", func(p *Proc) { t.Error("body ran after Stop") }))
	now, dispatched, handoffs := s.Now(), s.Dispatched(), s.Handoffs()
	if handoffs != 3 {
		t.Fatalf("handoffs before Stop = %d, want 3 (one first wake each)", handoffs)
	}
	s.Stop()
	if !s.Stopped() {
		t.Fatal("Stopped() is false after Stop")
	}
	if s.Now() != now || s.Dispatched() != dispatched || s.Handoffs() != handoffs {
		t.Fatalf("Stop moved the kernel: now %v→%v dispatched %d→%d handoffs %d→%d",
			now, s.Now(), dispatched, s.Dispatched(), handoffs, s.Handoffs())
	}
	for _, p := range procs {
		if !p.Done() {
			t.Errorf("%s still alive after Stop", p.Name())
		}
	}
}

// TestStopAfterFailureUnwinds: a panicking process halts the simulation
// without waking anyone, so Stop must still unwind what it left parked —
// the run that failed is exactly the one whose owner closes it next.
func TestStopAfterFailureUnwinds(t *testing.T) {
	s := New(1)
	var gotErr error
	stuck := s.Spawn("stuck", func(p *Proc) { gotErr = p.Sleep(time.Hour) })
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	if err := s.RunUntilIdle(); err == nil {
		t.Fatal("expected the panic to fail the simulation")
	}
	if !s.Stopped() || stuck.Done() {
		t.Fatalf("after the failure: Stopped=%v, parked proc done=%v; want true, false", s.Stopped(), stuck.Done())
	}
	s.Stop()
	if !stuck.Done() || !errors.Is(gotErr, ErrStopped) {
		t.Fatalf("after Stop: done=%v err=%v, want done with ErrStopped", stuck.Done(), gotErr)
	}
}

func TestSpawnAfterStop(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() { s.Stop() })
	s.RunUntilIdle()
	ran := false
	p := s.Spawn("late", func(p *Proc) { ran = true })
	// The process never starts: its goroutine is released immediately and
	// the body is skipped.
	if ran {
		t.Fatal("body of a post-stop spawn must not run")
	}
	if !p.Done() {
		t.Fatal("post-stop spawn should be terminated immediately")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	ran := false
	s.After(-5*time.Second, func() { ran = true })
	s.RunUntilIdle()
	if !ran || s.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, s.Now())
	}
}
