package sensor

import "math"

// Both Monitor links hand their payloads over by pointer and recycle
// them through msg.Lease. A sender counts each envelope it sends a
// payload in as a holder, and its receiver releases the payload once its
// receive loop is done with it, dropped envelopes included. A payload
// goes back to its sender's free list when no envelope carries it and no
// re-send cache holds it (only a batch is cached: a worker's last), and
// the sender allocates only when that list is empty. The lists belong to
// one Client or Server.

// Release hands the batch back: its receiver is done with it.
func (b *Batch) Release() {
	b.lease.Release()
	b.recycle()
}

// recycle returns b to its free list if it is idle, poisoned so a read
// after release shows: no series, NaN values.
func (b *Batch) recycle() {
	if !b.lease.Home(b) {
		return
	}
	for i := range b.Updates {
		b.Updates[i] = Update{Value: math.NaN()}
	}
}

// Release hands the list back: its receiver is done with it.
func (l *MetricList) Release() {
	l.lease.Release()
	l.recycle()
}

// recycle returns l to its free list if it is idle, poisoned first.
func (l *MetricList) recycle() {
	if !l.lease.Home(l) {
		return
	}
	for i := range l.Msgs {
		l.Msgs[i] = MetricMsg{Value: math.NaN()}
	}
}
