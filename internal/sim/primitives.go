package sim

// This file provides the synchronization primitives simulated processes
// coordinate with: broadcast Signals and bounded FIFO Queues. Both wake
// waiters in FIFO order through the event queue, preserving determinism.

// Signal is a broadcast condition: processes Wait on it and every waiter is
// woken by the next Broadcast. There is no memory — a Broadcast with no
// waiters is lost (latch on top of it if needed).
type Signal struct {
	waiters []*Proc
	scratch []*Proc // recycled backing array for the next waiters list
}

// NewSignal creates a Signal with no waiters.
func NewSignal() *Signal { return &Signal{} }

func (sig *Signal) enqueue(p *Proc) { sig.waiters = append(sig.waiters, p) }

func (sig *Signal) dequeue(p *Proc) {
	for i, w := range sig.waiters {
		if w == p {
			sig.waiters = append(sig.waiters[:i], sig.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes every process currently waiting on the signal, in the
// order they started waiting. The waiter list is detached before iterating
// (a wake may deregister other procs from this signal) and its backing
// array is recycled, so steady-state Broadcast does not allocate.
func (sig *Signal) Broadcast() {
	if len(sig.waiters) == 0 {
		return
	}
	waiters := sig.waiters
	if sig.scratch != nil {
		sig.waiters = sig.scratch[:0]
	} else {
		sig.waiters = nil
	}
	for _, w := range waiters {
		w.scheduleWake(nil)
	}
	for i := range waiters {
		waiters[i] = nil
	}
	sig.scratch = waiters[:0]
}

// Queue is a FIFO channel between simulated processes. A capacity of zero or
// less means unbounded. Put blocks while the queue is full; Get blocks while
// it is empty. Items are delivered in insertion order.
type Queue[T any] struct {
	cap      int
	items    []T
	notEmpty *Signal
	notFull  *Signal
	closed   bool
}

// NewQueue creates a queue with the given capacity (<= 0 for unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{
		cap:      capacity,
		notEmpty: NewSignal(),
		notFull:  NewSignal(),
	}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

func (q *Queue[T]) full() bool { return q.cap > 0 && len(q.items) >= q.cap }

// ErrClosed is returned by queue operations on a closed queue.
var ErrClosed = errorString("sim: queue closed")

type errorString string

func (e errorString) Error() string { return string(e) }

// Close marks the queue closed: pending and future Puts fail, Gets drain the
// remaining items and then fail.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Put appends v, blocking the calling process while the queue is full. It
// returns ErrClosed if the queue is (or becomes) closed, or the
// interrupt/stop error delivered while blocked.
func (q *Queue[T]) Put(p *Proc, v T) error {
	for {
		if q.closed {
			return ErrClosed
		}
		if !q.full() {
			q.items = append(q.items, v)
			q.notEmpty.Broadcast()
			return nil
		}
		if err := p.Wait(q.notFull); err != nil {
			return err
		}
	}
}

// TryPut appends v without blocking. It reports whether the item was
// accepted (false when full or closed).
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || q.full() {
		return false
	}
	q.items = append(q.items, v)
	q.notEmpty.Broadcast()
	return true
}

// Get removes and returns the oldest item, blocking the calling process
// while the queue is empty. It returns ErrClosed once the queue is closed
// and drained, or the interrupt/stop error delivered while blocked.
func (q *Queue[T]) Get(p *Proc) (T, error) {
	var zero T
	for {
		if len(q.items) > 0 {
			return q.pop(), nil
		}
		if q.closed {
			return zero, ErrClosed
		}
		if err := p.Wait(q.notEmpty); err != nil {
			return zero, err
		}
	}
}

// GetAll blocks until at least one item is available and then removes and
// returns every buffered item, appending to buf (pass buf[:0] to recycle a
// batch buffer across calls). A burst of N same-instant deliveries costs
// one kernel→process handoff instead of N. It returns ErrClosed once the
// queue is closed and drained, or the interrupt/stop error delivered while
// blocked.
func (q *Queue[T]) GetAll(p *Proc, buf []T) ([]T, error) {
	for {
		if len(q.items) > 0 {
			buf = append(buf, q.items...)
			var zero T
			for i := range q.items {
				q.items[i] = zero
			}
			q.items = q.items[:0]
			q.notFull.Broadcast()
			return buf, nil
		}
		if q.closed {
			return buf, ErrClosed
		}
		if err := p.Wait(q.notEmpty); err != nil {
			return buf, err
		}
	}
}

// TryGet removes and returns the oldest item without blocking. ok is false
// when the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.pop(), true
}

// pop removes and returns the oldest item. Its slot is zeroed before the
// reslice so the backing array stops referencing it.
func (q *Queue[T]) pop() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero
	if len(q.items) == 1 {
		// Drained: the next put reuses the array from its start instead
		// of growing a fresh one past the consumed slot.
		q.items = q.items[:0]
	} else {
		q.items = q.items[1:]
	}
	q.notFull.Broadcast()
	return v
}

// Items returns a copy of the buffered items in delivery order without
// consuming them (checkpoint inspection; the live queue is untouched).
func (q *Queue[T]) Items() []T {
	return append([]T(nil), q.items...)
}
