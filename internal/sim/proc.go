// iter.Pull is Go 1.23 API, and the module's go line says 1.22: bench/go.mod
// pins the same version and may not depend on a module that declares a newer
// one. This constraint raises this file's language version to 1.23, which
// go vet requires before it accepts the call.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Proc is a simulated process: a runtime coroutine (iter.Pull) that advances
// only while it holds the kernel's baton. Exactly one process runs at any
// moment; a process that blocks (Sleep, Wait, queue operations, ...) yields
// the baton back to the kernel, which resumes it later in event order. A
// baton transfer is a direct coroutine switch: the running goroutine hands
// its thread to the other one without going through the scheduler.
//
// All Proc methods except Interrupt, Done and Err must be called from
// the process's own goroutine (i.e. from inside the function passed to
// Spawn). Interrupt may be called from kernel context or from another
// running process.
type Proc struct {
	sim  *Sim
	pid  uint64
	name string

	next  func() (struct{}, bool) // kernel -> proc: run until the next block or exit
	yield func(struct{}) bool     // proc -> kernel: give the baton back
	wake  error                   // the value the next resume delivers

	done bool
	err  error // panic converted to error, nil on normal exit

	// Blocked-state bookkeeping. Invariant: parked is true exactly while
	// the process is registered on some wait structure with no wake
	// scheduled yet. Every wake path claims the process by deregistering
	// it, clearing parked, and scheduling a same-instant wake event; the
	// claim is recorded in pendingWake so a later claimant (Interrupt,
	// Stop) can supersede the scheduled wake instead of double-resuming.
	parked      bool
	waitSig     *Signal // the signal a Wait is registered on, if any
	wakeEvent   *Event  // pending timer wake (Sleep), if any
	pendingWake *Event  // scheduled wake event claiming this proc, if any
	pending     error   // interrupt delivered while the proc was runnable

	doneSig *Signal
	body    func(*Proc)
	// guard, when set, absorbs a panic in the body: the process exits
	// normally and the handler runs instead of the simulation failing.
	guard func(recovered any)
}

// Spawn creates a process named name running fn and schedules it to start at
// the current instant. The returned Proc can be joined, interrupted, and
// inspected.
//
// A body that calls runtime.Goexit (as t.Fatal does) ends the goroutine that
// resumed it — the one calling Run, RunUntilIdle or Stop — as well; the Sim
// is unusable afterwards.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:  s,
		pid:  s.nextPID,
		name: name,
		body: fn,
	}
	p.doneSig = NewSignal()
	s.nextPID++
	s.procs[p.pid] = p

	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run()
	})

	// The new process starts parked; its first wake is a normal wake event.
	// parked stays true while the claim is outstanding so an Interrupt
	// arriving before the first wake supersedes it (scheduleWake cancels
	// the claimed event) instead of being lost.
	p.parked = true
	if s.stopped {
		// No further events run; end the coroutine immediately.
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

// run is the coroutine body: it starts at the kernel's first wake, runs the
// body, and reports termination. Returning ends the coroutine, which hands
// the baton back for the last time.
func (p *Proc) run() {
	if p.wake == nil { // the first wake is non-nil only if stopped before starting
		func() {
			defer func() {
				if r := recover(); r != nil {
					if p.guard != nil {
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
	delete(p.sim.procs, p.pid)
	p.doneSig.Broadcast()
}

// handoff passes the baton to the process as the schedule's next step and
// returns once the process yields it back. It must run in kernel context
// (from an event).
func (p *Proc) handoff(err error) {
	if p.done {
		return
	}
	p.sim.handoffs++
	p.resumeWith(err)
}

// resumeWith is the baton transfer itself: switch to the process's
// coroutine with wake value err, and return once it blocks again or exits.
func (p *Proc) resumeWith(err error) {
	prev := p.sim.current
	p.sim.current = p
	p.wake = err
	p.next()
	p.sim.current = prev
}

// scheduleWake claims a parked process and schedules its resumption at the
// current instant with the given wake value. It is safe to call from kernel
// context or from another running process; calling it on a process that is
// not parked (already claimed, runnable, or done) is a no-op — except that
// an Interrupt may supersede an existing claim (see Interrupt).
func (p *Proc) scheduleWake(err error) {
	if p.done || !p.parked {
		return
	}
	if p.waitSig != nil {
		p.waitSig.dequeue(p)
		p.waitSig = nil
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
	p.pendingWake = e
}

// unwind synchronously resumes a blocked process — parked on a wait
// structure, or claimed by a wake event that will now never run — with
// ErrStopped, bypassing the event queue, and returns once its coroutine
// blocks again or exits. Used by Stop (and by Spawn after it), when no
// further events execute; it is teardown, so Handoffs does not count it.
func (p *Proc) unwind() {
	if p.done || (!p.parked && p.pendingWake == nil) {
		return
	}
	if p.waitSig != nil {
		p.waitSig.dequeue(p)
		p.waitSig = nil
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
	if p.waitSig != nil {
		p.waitSig.dequeue(p)
		p.waitSig = nil
	}
	p.parked = false
	p.handoff(nil)
}

// block parks the process until a wake arrives: it yields the coroutine to
// the kernel, and the kernel's next resumeWith switches back with the wake
// value in p.wake. The wake it arranges is sig's next Broadcast (a Wait),
// or — sig nil — a timer d from now (a Sleep). Every wake path dequeues the
// process from p.waitSig, so a Wait registers no closure and allocates
// nothing. block returns the wake value: nil for a normal wake, an
// ErrInterrupted-wrapped error for interrupts, or ErrStopped at shutdown.
func (p *Proc) block(sig *Signal, d time.Duration) error {
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
	if sig != nil {
		sig.enqueue(p)
		p.waitSig = sig
	} else {
		e := p.sim.newEvent(p.sim.now + d)
		e.kind = evTimer
		e.proc = p
		p.wakeEvent = e
	}
	p.parked = true
	p.sim.current = nil
	p.yield(struct{}{}) // give the baton back; returns at the next wake
	return p.wake
}

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
	return p.block(nil, d)
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
// again are NOT queued; Interrupt reports the loss by returning false.
// Interrupting a terminated process is also a drop (returns false).
func (p *Proc) Interrupt(cause error) bool {
	if p.done {
		return false
	}
	err := ErrInterrupted
	if cause != nil {
		err = &interruptError{errs: [2]error{ErrInterrupted, cause}}
	}
	if p.parked {
		p.scheduleWake(err)
		return true
	}
	if p.pending == nil {
		p.pending = err
		return true
	}
	return false
}

// interruptError is an interrupt with a cause: fmt.Errorf("%w: %w",
// ErrInterrupted, cause) formatted only when Error is called, since most
// interrupts are matched with errors.Is and dropped unread.
type interruptError struct{ errs [2]error }

func (e *interruptError) Error() string {
	return e.errs[0].Error() + ": " + e.errs[1].Error()
}

func (e *interruptError) Unwrap() []error { return e.errs[:] }

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
	return p.block(sig, 0)
}
