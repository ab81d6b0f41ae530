package sensor

import (
	"fmt"
	"math"
)

// Both Monitor links hand their payloads over by pointer and recycle
// them. A sender counts each envelope it sends a payload in, and its
// receiver releases the payload once its receive loop is done with it,
// dropped envelopes included. A payload goes back to its sender's free
// list when no envelope carries it and no re-send cache holds it (only a
// batch is cached: a worker's last), and the sender allocates only when
// that list is empty. The lists belong to one Client or Server and take
// no lock: a world is single-threaded.

// lease is a recycled payload's ownership: the envelopes still carrying
// it, whether a re-send cache holds it (a worker's last batch; a forward
// list never is), and the free list it returns to. A payload with no
// home — restored from a checkpoint, or built by hand — is never
// recycled, and releasing it does nothing.
type lease[P any] struct {
	home   *[]*P
	refs   int32
	cached bool
}

// idle reports whether the payload goes home: it has one, and no envelope
// carries it and no cache holds it.
func (l *lease[P]) idle() bool { return l.home != nil && l.refs == 0 && !l.cached }

// release counts one envelope done with; releasing more envelopes than
// were sent is a receiver bug.
func (l *lease[P]) release(what string) {
	if l.home == nil {
		return
	}
	if l.refs--; l.refs < 0 {
		panic(fmt.Sprintf("sensor: %s released more often than sent", what))
	}
}

// take returns a payload off free, or nil when the list is empty.
func take[P any](free *[]*P) *P {
	n := len(*free)
	if n == 0 {
		return nil
	}
	p := (*free)[n-1]
	*free = (*free)[:n-1]
	return p
}

// Release hands the batch back: its receiver is done with it.
func (b *Batch) Release() {
	b.release("batch")
	b.recycle()
}

// recycle returns b to its free list if it is idle, poisoned first so a
// read after release shows: no series, NaN values.
func (b *Batch) recycle() {
	if !b.idle() {
		return
	}
	for i := range b.Updates {
		b.Updates[i] = Update{Value: math.NaN()}
	}
	*b.home = append(*b.home, b)
}

// Release hands the list back: its receiver is done with it.
func (l *MetricList) Release() {
	l.release("metric list")
	l.recycle()
}

// recycle returns l to its free list if it is idle, poisoned first.
func (l *MetricList) recycle() {
	if !l.idle() {
		return
	}
	for i := range l.Msgs {
		l.Msgs[i] = MetricMsg{Value: math.NaN()}
	}
	*l.home = append(*l.home, l)
}
