package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Proc is a simulated process: a goroutine that advances only while it holds
// the kernel's baton. Exactly one process runs at any moment; a process that
// blocks (Sleep, Wait, queue operations, ...) yields the baton back to the
// kernel, which resumes it later in event order.
//
// All Proc methods except Interrupt, Done, Err and Name must be called from
// the process's own goroutine (i.e. from inside the function passed to
// Spawn). Interrupt may be called from kernel context or from another
// running process.
type Proc struct {
	sim  *Sim
	pid  uint64
	name string

	resume chan error // kernel -> proc: wake value (nil, or the wake error)
	yield  chan bool  // proc -> kernel: true when the process has terminated

	done bool
	err  error // panic converted to error, nil on normal exit

	// Blocked-state bookkeeping. Invariant: parked is true exactly while
	// the process is registered on some wait structure with no wake
	// scheduled yet. Every wake path claims the process by deregistering
	// it, clearing parked, and scheduling a same-instant wake event; the
	// claim is recorded in pendingWake so a later claimant (Interrupt,
	// Stop) can supersede the scheduled wake instead of double-resuming.
	parked      bool
	cancelWait  func() // deregisters the proc from whatever it waits on
	wakeEvent   *Event // pending timer wake (Sleep / WaitTimeout), if any
	pendingWake *Event // scheduled wake event claiming this proc, if any
	pending     error  // interrupt delivered while the proc was runnable

	// Interrupt-loss accounting: a runnable process retains at most one
	// pending interrupt; later causes are counted and the last one kept.
	droppedInterrupts int
	lastDropped       error

	lastWakeBySignal bool // set when the wake came from a Signal broadcast

	doneSig *Signal
	body    func(*Proc)
	// guard, when set, absorbs a panic in the body: the process exits
	// normally and the handler runs instead of the simulation failing.
	guard func(recovered any)
}

// Spawn creates a process named name running fn and schedules it to start at
// the current instant. The returned Proc can be joined, interrupted, and
// inspected.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		pid:    s.nextPID,
		name:   name,
		resume: make(chan error),
		yield:  make(chan bool),
		body:   fn,
	}
	p.doneSig = NewSignal(s)
	s.nextPID++
	s.procs[p.pid] = p

	go p.run()

	// The new process starts parked; its first wake is a normal wake event.
	// parked stays true while the claim is outstanding so an Interrupt
	// arriving before the first wake supersedes it (scheduleWake cancels
	// the claimed event) instead of being lost.
	p.parked = true
	if s.stopped {
		// No further events run; release the goroutine immediately.
		p.unwind()
		return p
	}
	e := s.newEvent(s.now)
	e.kind = evWake
	e.proc = p
	p.pendingWake = e
	return p
}

// SpawnGuarded is Spawn with a panic guard: if the process body panics, the
// panic is absorbed instead of failing the whole simulation — the process
// exits normally and onPanic runs with the recovered value, still holding
// the process's turn (so it may schedule events, e.g. a supervised
// restart). onPanic must not call blocking process operations.
func (s *Sim) SpawnGuarded(name string, fn func(p *Proc), onPanic func(recovered any)) *Proc {
	p := s.Spawn(name, fn)
	p.guard = onPanic
	return p
}

// run is the goroutine body: it parks until the kernel's first wake, runs
// the body, and reports termination.
func (p *Proc) run() {
	err := <-p.resume // first wake; non-nil only if stopped before starting
	if err == nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if p.guard != nil {
						p.sim.logf("proc %q panicked (guarded): %v", p.name, r)
						p.guard(r)
						return
					}
					p.err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}()
			p.body(p)
		}()
	}
	p.done = true
	if p.err != nil {
		p.sim.fail(p.err)
	}
	p.sim.logf("proc %q exits", p.name)
	delete(p.sim.procs, p.pid)
	p.doneSig.Broadcast()
	p.yield <- true
}

// handoff passes the baton to the process as the schedule's next step and
// blocks until it yields. It must run in kernel context (from an event).
func (p *Proc) handoff(err error) {
	if p.done {
		return
	}
	p.sim.handoffs++
	p.resumeWith(err)
}

// resumeWith is the baton transfer itself: wake the process goroutine with
// err and wait for it to park again or exit.
func (p *Proc) resumeWith(err error) {
	prev := p.sim.current
	p.sim.current = p
	p.resume <- err
	<-p.yield
	p.sim.current = prev
}

// scheduleWake claims a parked process and schedules its resumption at the
// current instant with the given wake value. It is safe to call from kernel
// context or from another running process; calling it on a process that is
// not parked (already claimed, runnable, or done) is a no-op — except that
// an Interrupt may supersede an existing claim (see Interrupt).
func (p *Proc) scheduleWake(err error, bySignal bool) {
	if p.done || !p.parked {
		return
	}
	if p.cancelWait != nil {
		p.cancelWait()
		p.cancelWait = nil
	}
	if p.wakeEvent != nil {
		p.sim.cancelInternal(p.wakeEvent)
		p.wakeEvent = nil
	}
	if p.pendingWake != nil {
		// Supersede an existing claim (a Spawn's first wake raced an
		// Interrupt at the same instant): the new wake value wins and the
		// old event is removed from the schedule.
		p.sim.cancelInternal(p.pendingWake)
		p.pendingWake = nil
	}
	p.parked = false
	e := p.sim.newEvent(p.sim.now)
	e.kind = evWake
	e.proc = p
	e.werr = err
	e.bySignal = bySignal
	p.pendingWake = e
}

// unwind synchronously resumes a blocked process — parked on a wait
// structure, or claimed by a wake event that will now never run — with
// ErrStopped, bypassing the event queue, and waits for its goroutine to
// park again or exit. Used by Stop (and by Spawn after it), when no
// further events execute; it is teardown, so Handoffs does not count it.
func (p *Proc) unwind() {
	if p.done || (!p.parked && p.pendingWake == nil) {
		return
	}
	if p.cancelWait != nil {
		p.cancelWait()
		p.cancelWait = nil
	}
	if p.wakeEvent != nil {
		p.sim.cancelInternal(p.wakeEvent)
		p.wakeEvent = nil
	}
	if p.pendingWake != nil {
		p.sim.cancelInternal(p.pendingWake)
		p.pendingWake = nil
	}
	p.parked = false
	p.resumeWith(ErrStopped)
}

// timerFire resumes a parked process whose timer elapsed. It runs in kernel
// context, directly from step: a Sleep costs one pooled event and one
// handoff, with no trampoline closure or second wake event.
func (p *Proc) timerFire() {
	if p.cancelWait != nil {
		p.cancelWait()
		p.cancelWait = nil
	}
	p.parked = false
	p.lastWakeBySignal = false
	p.handoff(nil)
}

// block parks the process until a wake arrives. register runs in process
// context before yielding and must arrange a future wake (a timer via
// p.wakeEvent, or a wait-list entry whose waker calls scheduleWake); cancel
// (which may be nil) must undo the wait-list registration. block returns
// the wake value: nil for a normal wake, an ErrInterrupted-wrapped error
// for interrupts, or ErrStopped at shutdown.
func (p *Proc) block(register func(), cancel func()) error {
	if p.sim.current != p {
		panic(fmt.Sprintf("sim: blocking call on process %q from outside its goroutine", p.name))
	}
	if p.sim.stopped {
		return ErrStopped
	}
	if p.pending != nil {
		err := p.pending
		p.pending = nil
		return err
	}
	register()
	p.parked = true
	p.cancelWait = cancel
	p.sim.current = nil
	p.yield <- false  // give the baton back to the kernel
	err := <-p.resume // parked until a wake handoff
	return err
}

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// Err returns the process's failure (a converted panic), or nil.
func (p *Proc) Err() error { return p.err }

// Sleep suspends the process for d of virtual time. It returns nil after
// the full duration has elapsed, or an interrupt/stop error delivered while
// sleeping — in which case less than d may have elapsed (use Now to compute
// the remainder).
func (p *Proc) Sleep(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	return p.block(
		func() {
			e := p.sim.newEvent(p.sim.now + d)
			e.kind = evTimer
			e.proc = p
			p.wakeEvent = e
		},
		nil,
	)
}

// SleepUninterruptible suspends the process for d of virtual time, absorbing
// interrupts: if interrupted, it keeps sleeping the remainder and returns
// the first interrupt error only after the full duration has elapsed. Only a
// simulation stop cuts it short. This models work that must run to
// completion, e.g. a task finishing its current timestep after SIGTERM.
func (p *Proc) SleepUninterruptible(d time.Duration) error {
	deadline := p.sim.now + d
	var first error
	for {
		remaining := deadline - p.sim.now
		if remaining <= 0 {
			return first
		}
		err := p.Sleep(remaining)
		switch {
		case err == nil:
			return first
		case Interrupted(err):
			if first == nil {
				first = err
			}
		default: // stopped
			return err
		}
	}
}

// Interrupt delivers cause (wrapped in ErrInterrupted) to the process. If
// the process is blocked, its blocking call returns immediately with the
// interrupt; if it is runnable, its next blocking call returns it. cause may
// be nil.
//
// At-most-one semantics: a runnable process retains only ONE pending
// interrupt — the first. Later causes delivered before the process blocks
// again are NOT queued; Interrupt reports the loss by returning false, and
// the dropped cause is recorded (deterministically, in delivery order) and
// readable via DroppedInterrupts/LastDroppedInterrupt. Interrupting a
// terminated process is also a drop (returns false).
func (p *Proc) Interrupt(cause error) bool {
	if p.done {
		return false
	}
	err := ErrInterrupted
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	if p.parked {
		p.scheduleWake(err, false)
		return true
	}
	if p.pending == nil {
		p.pending = err
		return true
	}
	p.droppedInterrupts++
	p.lastDropped = err
	return false
}

// DroppedInterrupts returns the number of interrupt causes dropped because
// the process was runnable and already had a pending interrupt.
func (p *Proc) DroppedInterrupts() int { return p.droppedInterrupts }

// LastDroppedInterrupt returns the most recently dropped interrupt error
// (already ErrInterrupted-wrapped), or nil if none was dropped.
func (p *Proc) LastDroppedInterrupt() error { return p.lastDropped }

// Join blocks until other terminates. It returns nil once other has
// terminated, or the interrupt/stop error delivered while waiting.
func (p *Proc) Join(other *Proc) error {
	if other.done {
		return nil
	}
	return p.Wait(other.doneSig)
}

// Wait blocks until sig is broadcast. It returns nil on a broadcast wake, or
// the interrupt/stop error delivered while waiting.
func (p *Proc) Wait(sig *Signal) error {
	return p.block(
		func() { sig.enqueue(p) },
		func() { sig.dequeue(p) },
	)
}

// WaitTimeout blocks until sig is broadcast or d elapses. It returns
// (true, nil) on a broadcast wake, (false, nil) on timeout, and (false, err)
// if interrupted or stopped. Whichever side loses the race is canceled
// eagerly: a signal wake removes the timer event from the heap immediately,
// so cancel-heavy loops do not grow the schedule.
func (p *Proc) WaitTimeout(sig *Signal, d time.Duration) (bool, error) {
	err := p.block(
		func() {
			sig.enqueue(p)
			e := p.sim.newEvent(p.sim.now + d)
			e.kind = evTimer
			e.proc = p
			p.wakeEvent = e
		},
		func() { sig.dequeue(p) },
	)
	if err != nil {
		return false, err
	}
	fired := p.lastWakeBySignal
	p.lastWakeBySignal = false
	return fired, nil
}
