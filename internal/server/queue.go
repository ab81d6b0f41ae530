package server

import (
	"errors"
	"sync"

	"dyflow/internal/obs"
)

// errQueueFull is returned by push when the queue is at capacity — the
// submission handler turns it into 429 backpressure.
var errQueueFull = errors.New("server: run queue full")

// runQueue is the bounded FIFO claims are served from: runs leave in the
// order they were admitted, so one tenant's runs execute in submission
// order. When the queue is full, submissions are rejected with backpressure
// rather than buffered without limit.
type runQueue struct {
	mu  sync.Mutex
	ids []string // run IDs, oldest first
	max int
	// wake is closed by the next enqueue; nil until a claim finds the queue
	// empty and asks for it.
	wake  chan struct{}
	depth *obs.Gauge // dyflow_server_queue_depth
}

func newRunQueue(bound int, depth *obs.Gauge) *runQueue {
	return &runQueue{max: bound, depth: depth}
}

// push appends a run, failing with errQueueFull at capacity.
func (q *runQueue) push(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ids) >= q.max {
		return errQueueFull
	}
	q.ids = append(q.ids, id)
	q.enqueuedLocked()
	return nil
}

// enqueuedLocked accounts for one run just added and wakes every parked
// claim.
func (q *runQueue) enqueuedLocked() {
	q.depth.Set(float64(len(q.ids)))
	if q.wake != nil {
		close(q.wake)
		q.wake = nil
	}
}

// requeue reinserts a run at the front, bypassing the capacity bound: the
// bound is admission backpressure for *new* submissions, while a requeued
// run was already admitted once — restore after a crash, a lapsed fleet
// lease, a rejected result upload. Front insertion keeps a requeued run
// ahead of work submitted after it. The queue may transiently exceed max;
// push keeps rejecting new submissions until it drains below the bound
// again.
func (q *runQueue) requeue(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ids = append([]string{id}, q.ids...)
	q.enqueuedLocked()
}

// tryPop takes the oldest queued run and never blocks. When the queue is
// empty it returns instead the channel the next enqueue closes — taken
// under the lock the check ran under, so a claim that parks on it cannot
// miss a push that raced its check.
func (q *runQueue) tryPop() (id string, wake <-chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ids) > 0 {
		id := q.ids[0]
		q.ids = q.ids[1:]
		q.depth.Set(float64(len(q.ids)))
		return id, nil
	}
	if q.wake == nil {
		q.wake = make(chan struct{})
	}
	return "", q.wake
}

// remove deletes a queued run (cancellation), reporting whether it was
// still queued.
func (q *runQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, have := range q.ids {
		if have == id {
			q.ids = append(q.ids[:i], q.ids[i+1:]...)
			q.depth.Set(float64(len(q.ids)))
			return true
		}
	}
	return false
}
