package server

import (
	"errors"
	"hash/fnv"
	"strconv"
	"sync"

	"dyflow/internal/obs"
)

// errQueueFull is returned by push when the queue is at capacity — the
// submission handler turns it into 429 backpressure.
var errQueueFull = errors.New("server: run queue full")

// shardedQueue is the bounded run queue claims are served from: one FIFO
// shard per in-process worker slot, submissions hashed by tenant to a shard
// (so one tenant's runs execute in submission order), a claim draining the
// shard it names first and stealing from the others when that is empty. The
// capacity bound is global — when the queue is full, submissions are
// rejected with backpressure rather than buffered without limit.
type shardedQueue struct {
	mu     sync.Mutex
	shards [][]string // run IDs, FIFO per shard
	size   int
	max    int
	// wake is closed by the next enqueue; nil until a claim finds the queue
	// empty and asks for it.
	wake  chan struct{}
	depth *obs.GaugeVec // dyflow_server_queue_depth{shard}
}

func newShardedQueue(shards, bound int, depth *obs.GaugeVec) *shardedQueue {
	return &shardedQueue{shards: make([][]string, max(shards, 1)), max: bound, depth: depth}
}

// shardFor hashes a tenant to its home shard.
func (q *shardedQueue) shardFor(tenant string) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(len(q.shards)))
}

func (q *shardedQueue) gauge(shard int) {
	q.depth.With(strconv.Itoa(shard)).Set(float64(len(q.shards[shard])))
}

// push appends a run to the shard, failing with errQueueFull at capacity.
func (q *shardedQueue) push(shard int, id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size >= q.max {
		return errQueueFull
	}
	q.shards[shard] = append(q.shards[shard], id)
	q.enqueuedLocked(shard)
	return nil
}

// enqueuedLocked accounts for one run just added to shard and wakes every
// parked claim.
func (q *shardedQueue) enqueuedLocked(shard int) {
	q.size++
	q.gauge(shard)
	if q.wake != nil {
		close(q.wake)
		q.wake = nil
	}
}

// requeue reinserts a run at the front of its shard, bypassing the
// capacity bound: the bound is admission backpressure for *new*
// submissions, while a requeued run was already admitted once — restore
// after a crash, a lapsed fleet lease, a rejected result upload. Front
// insertion keeps a requeued run ahead of work submitted after it. The
// queue may transiently exceed max; push keeps rejecting new submissions
// until it drains below the bound again.
func (q *shardedQueue) requeue(shard int, id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.shards[shard] = append([]string{id}, q.shards[shard]...)
	q.enqueuedLocked(shard)
}

// tryPop takes the first queued run, scanning the shards from shard
// from mod their count, and never blocks. When every shard is empty it
// returns instead the channel the next enqueue closes — taken under the
// lock the scan ran under, so a claim that parks on it cannot miss a push
// that raced its scan.
func (q *shardedQueue) tryPop(from int) (id string, wake <-chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.shards)
	for i := 0; i < n; i++ {
		s := (from + i) % n
		if len(q.shards[s]) > 0 {
			id := q.shards[s][0]
			q.shards[s] = q.shards[s][1:]
			q.size--
			q.gauge(s)
			return id, nil
		}
	}
	if q.wake == nil {
		q.wake = make(chan struct{})
	}
	return "", q.wake
}

// remove deletes a queued run (cancellation), reporting whether it was
// still queued.
func (q *shardedQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for s := range q.shards {
		for i, have := range q.shards[s] {
			if have == id {
				q.shards[s] = append(q.shards[s][:i], q.shards[s][i+1:]...)
				q.size--
				q.gauge(s)
				return true
			}
		}
	}
	return false
}

// depthTotal returns the number of queued runs.
func (q *shardedQueue) depthTotal() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
