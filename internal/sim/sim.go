// Package sim implements a deterministic discrete-event simulation (DES)
// kernel. It is the substrate on which the entire DYFLOW reproduction runs:
// the simulated cluster, the simulated MPI tasks, the monitoring transport,
// and the DYFLOW orchestration stages all advance on the kernel's virtual
// clock.
//
// The kernel supports two styles of simulated activity:
//
//   - plain events: callbacks scheduled at an absolute or relative virtual
//     time, executed in the kernel goroutine;
//   - processes (Proc): goroutines that run in strict handoff with the
//     kernel — exactly one process runs at a time, and a blocked process is
//     resumed in event-heap order — giving SimPy-style readable process code
//     while keeping every run fully deterministic.
//
// All time is virtual. Time is an absolute instant (a Duration since the
// start of the run); durations are time.Duration. Events that fire at the
// same instant execute in scheduling order (a monotonically increasing
// sequence number breaks ties), so a run is a pure function of its inputs
// and seed.
//
// The event loop is the hot path of every experiment, so it avoids
// per-event allocation and indirection: Event structs are recycled through
// a free-list, the heap is a hand-rolled binary heap with inlined
// comparisons (no container/heap interface dispatch), canceled events are
// removed eagerly rather than tombstoned, and process timer wakes resume
// the process directly from the kernel instead of scheduling a second
// trampoline event. See DESIGN.md §14.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is an absolute instant on the virtual clock, expressed as the
// duration elapsed since the start of the simulation.
type Time = time.Duration

// ErrInterrupted is returned from blocking process operations (Sleep, Wait,
// queue operations, ...) when another party calls Proc.Interrupt. The cause
// passed to Interrupt is wrapped and can be recovered with errors.Unwrap.
var ErrInterrupted = errors.New("sim: interrupted")

// ErrStopped is returned from blocking operations when the simulation is
// shut down while the process is still blocked.
var ErrStopped = errors.New("sim: simulation stopped")

// Interrupted reports whether err originates from a Proc.Interrupt call.
func Interrupted(err error) bool { return errors.Is(err, ErrInterrupted) }

// Event kinds. A pooled Event is one of:
const (
	evFunc  = iota // plain callback
	evCall         // callback taking one argument (closure-free scheduling)
	evWake         // resume a claimed process (scheduleWake)
	evTimer        // timer wake of a parked process (Sleep / WaitTimeout)
)

// Event is a pooled, scheduled kernel event. Events are owned by the kernel
// and recycled through a free-list after they fire or are canceled; user
// code never holds a *Event directly — At/After return an EventID handle
// whose generation counter makes stale cancels provably inert.
type Event struct {
	sim   *Sim
	at    Time
	seq   uint64
	gen   uint64 // bumped on release; EventIDs with an older gen are stale
	index int    // heap index, -1 when not scheduled

	kind     uint8
	bySignal bool // evWake: wake was caused by a Signal broadcast
	fn       func()
	fn1      func(any)
	arg      any
	proc     *Proc // evWake / evTimer target
	werr     error // evWake value
}

// EventID is a cancelable handle to a scheduled event. The zero value is a
// valid no-op handle. Copies are cheap; Cancel on a handle whose event has
// already fired, been canceled, or been recycled for a different event is a
// no-op (the generation check makes this safe even though the underlying
// Event struct is pooled).
type EventID struct {
	e   *Event
	gen uint64
}

// Active reports whether the event is still scheduled to fire.
func (id EventID) Active() bool {
	return id.e != nil && id.e.gen == id.gen && id.e.index >= 0
}

// Time returns the virtual instant the event is scheduled to fire at, or 0
// if the handle is stale.
func (id EventID) Time() Time {
	if !id.Active() {
		return 0
	}
	return id.e.at
}

// Cancel removes the event from the schedule. Canceling an event that
// already fired (or was already canceled) is a no-op. Unlike a lazy
// tombstone, cancellation removes the event from the heap immediately, so
// cancel-heavy workloads (WaitTimeout under frequent broadcasts) keep the
// heap bounded.
func (id EventID) Cancel() {
	e := id.e
	if e == nil || e.gen != id.gen || e.index < 0 {
		return
	}
	s := e.sim
	s.heapRemove(e.index)
	s.release(e)
}

// Sim is a discrete-event simulation instance. The zero value is not usable;
// create instances with New.
//
// A Sim is not safe for concurrent use: the kernel, event callbacks, and the
// currently running process form a single logical thread of control.
type Sim struct {
	now     Time
	events  []*Event // binary min-heap ordered by (at, seq)
	free    []*Event // recycled Event structs
	seq     uint64
	rng     *rand.Rand
	procs   map[uint64]*Proc
	nextPID uint64
	stopped bool
	failure error
	current *Proc // process currently holding the baton, nil in kernel context

	dispatched uint64 // events executed by step
	handoffs   uint64 // kernel→process baton transfers

	// Logf, when non-nil, receives a human-readable trace of kernel
	// activity. Intended for debugging; experiments leave it nil.
	Logf func(format string, args ...any)
}

// New creates a simulation whose random source is seeded with seed. Two
// simulations constructed with the same seed and driven by the same calls
// produce identical schedules.
func New(seed int64) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[uint64]*Proc),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. It must only
// be used from kernel context or the currently running process.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Dispatched returns the number of events the kernel has executed.
func (s *Sim) Dispatched() uint64 { return s.dispatched }

// Handoffs returns the number of kernel→process baton transfers the
// schedule performed. A burst of N same-instant deliveries drained in one
// wake costs one handoff; the ratio Dispatched/Handoffs is the batching win.
// The resumes Stop uses to unwind blocked processes are teardown, not
// schedule, and are not counted.
func (s *Sim) Handoffs() uint64 { return s.handoffs }

// logf emits a kernel trace line if tracing is enabled.
func (s *Sim) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf("[%12s] %s", s.now, fmt.Sprintf(format, args...))
	}
}

// ---- event heap (hand-rolled: inlined comparisons, eager removal) ----

func (s *Sim) eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) heapPush(e *Event) {
	e.index = len(s.events)
	s.events = append(s.events, e)
	s.siftUp(e.index)
}

func (s *Sim) heapPop() *Event {
	h := s.events
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	s.events = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
	e.index = -1
	return e
}

// heapRemove removes the event at heap index i (eager cancellation).
func (s *Sim) heapRemove(i int) {
	h := s.events
	n := len(h) - 1
	e := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	s.events = h[:n]
	if i < n {
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	e.index = -1
}

func (s *Sim) siftUp(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.eventLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// siftDown restores the heap below i; it reports whether the element moved.
func (s *Sim) siftDown(i int) bool {
	h := s.events
	n := len(h)
	e := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.eventLess(h[r], h[child]) {
			child = r
		}
		if !s.eventLess(h[child], e) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = e
	e.index = i
	return i > start
}

// ---- event pool ----

// newEvent takes an Event from the free-list (or allocates one), stamps it
// with (at, seq), and pushes it on the heap.
func (s *Sim) newEvent(at Time) *Event {
	if at < s.now {
		at = s.now
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{sim: s}
	}
	s.seq++
	e.at = at
	e.seq = s.seq
	s.heapPush(e)
	return e
}

// release clears an event and returns it to the free-list. The generation
// bump invalidates every EventID handed out for the previous incarnation.
func (s *Sim) release(e *Event) {
	e.gen++
	e.kind = 0
	e.bySignal = false
	e.fn = nil
	e.fn1 = nil
	e.arg = nil
	e.proc = nil
	e.werr = nil
	e.index = -1
	s.free = append(s.free, e)
}

// cancelInternal eagerly removes a scheduled event held by kernel-internal
// code (no generation check: the caller owns the pointer).
func (s *Sim) cancelInternal(e *Event) {
	if e.index >= 0 {
		s.heapRemove(e.index)
	}
	s.release(e)
}

// ---- scheduling API ----

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (at < Now) fires the event at the current instant instead; same-instant
// events run in scheduling order.
func (s *Sim) At(at Time, fn func()) EventID {
	e := s.newEvent(at)
	e.kind = evFunc
	e.fn = fn
	return EventID{e: e, gen: e.gen}
}

// After schedules fn to run d after the current instant. Negative delays
// are treated as zero.
func (s *Sim) After(d time.Duration, fn func()) EventID {
	return s.At(s.now+d, fn)
}

// AtCall schedules fn(arg) at absolute virtual time at. Unlike At, the
// callback and its argument are stored separately, so hot paths that reuse
// one function value (e.g. message delivery) schedule without allocating a
// closure per event.
func (s *Sim) AtCall(at Time, fn func(any), arg any) EventID {
	e := s.newEvent(at)
	e.kind = evCall
	e.fn1 = fn
	e.arg = arg
	return EventID{e: e, gen: e.gen}
}

// AfterCall schedules fn(arg) to run d after the current instant.
func (s *Sim) AfterCall(d time.Duration, fn func(any), arg any) EventID {
	return s.AtCall(s.now+d, fn, arg)
}

// Pending reports the number of scheduled events. Canceled events are
// removed from the heap eagerly, so this is O(1).
func (s *Sim) Pending() int { return len(s.events) }

// step pops and executes the next event. It reports whether an event ran.
func (s *Sim) step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.heapPop()
	if e.at > s.now {
		s.now = e.at
	}
	s.dispatched++
	switch e.kind {
	case evFunc:
		fn := e.fn
		s.release(e)
		fn()
	case evCall:
		fn, arg := e.fn1, e.arg
		s.release(e)
		fn(arg)
	case evWake:
		p, err, bySignal := e.proc, e.werr, e.bySignal
		stale := p.pendingWake != e
		s.release(e)
		if stale || p.done {
			// A later claim (e.g. an Interrupt racing a Spawn's first
			// wake) superseded this event; the newer one carries the
			// wake value.
			return true
		}
		p.pendingWake = nil
		p.parked = false
		p.lastWakeBySignal = bySignal
		p.handoff(err)
	case evTimer:
		p := e.proc
		stale := p.wakeEvent != e
		s.release(e)
		if stale || p.done || !p.parked {
			return true
		}
		p.wakeEvent = nil
		p.timerFire()
	}
	return true
}

// Run executes events until the event queue drains, the virtual clock would
// pass until, or a process fails. A process failure (panic) is returned as
// an error. On return the clock is at until (if until is in the future),
// even when the queue drained before the horizon — stepped drivers like
// exp.ChaosRun.Step rely on idle windows still advancing sim time.
func (s *Sim) Run(until Time) error {
	for !s.stopped && s.failure == nil {
		if len(s.events) == 0 || s.events[0].at > until {
			break
		}
		s.step()
	}
	if s.failure == nil && !s.stopped && s.now < until {
		s.now = until
	}
	return s.failure
}

// RunUntilIdle executes events until none remain or a process fails.
func (s *Sim) RunUntilIdle() error {
	for !s.stopped && s.failure == nil && s.step() {
	}
	return s.failure
}

// Stop halts the simulation for good: no further events execute, and every
// process still blocked is resumed with ErrStopped, in PID order, so that
// its goroutine exits. Stop returns once they all have, after which nothing
// but the caller references the simulation and it is ordinary garbage.
//
// Stop is inert: whatever the simulated world looked like when it was
// called is what it looks like afterwards, so a stopped simulation can
// still be read. The kernel keeps its half of that (the clock and the
// Dispatched and Handoffs counts do not move); process bodies must keep
// theirs. A process that receives ErrStopped from a blocking call — or
// finds Stopped true after a call whose error it does not look at — returns
// without touching anything outside its own stack: no filesystem write,
// message send, stream close, metric update, resource release or event
// emission. Deferred end-of-life work needs the same check. A body that
// ignores ErrStopped and loops makes Stop spin forever.
//
// Stop is idempotent, and also unwinds what a failed simulation left parked.
func (s *Sim) Stop() {
	s.stopped = true
	for pid := uint64(0); pid < s.nextPID; pid++ {
		if p, ok := s.procs[pid]; ok {
			p.unwind()
		}
	}
}

// Stopped reports whether the simulation has been halted, by Stop or by a
// failed process.
func (s *Sim) Stopped() bool { return s.stopped }

// fail records a fatal simulation error (e.g. a panicking process) and
// prevents further events from executing.
func (s *Sim) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
	s.stopped = true
}
