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

// shardedQueue is the bounded run queue behind the worker pool: one FIFO
// shard per worker slot, submissions hashed by tenant to a shard (so one
// tenant's runs execute in submission order), workers draining their own
// shard first and stealing from the others when it is empty. The capacity
// bound is global — when the queue is full, submissions are rejected with
// backpressure rather than buffered without limit.
type shardedQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	shards [][]string // run IDs, FIFO per shard
	size   int
	max    int
	closed bool
	depth  *obs.GaugeVec // dyflow_server_queue_depth{shard}
}

func newShardedQueue(shards, max int, depth *obs.GaugeVec) *shardedQueue {
	if shards < 1 {
		shards = 1
	}
	q := &shardedQueue{shards: make([][]string, shards), max: max, depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
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
	if q.closed {
		return errors.New("server: queue closed")
	}
	if q.size >= q.max {
		return errQueueFull
	}
	q.shards[shard] = append(q.shards[shard], id)
	q.size++
	q.gauge(shard)
	q.cond.Signal()
	return nil
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
	if q.closed {
		// Shutting down: the run's queued record in the history store
		// carries it to the next process.
		return
	}
	q.shards[shard] = append([]string{id}, q.shards[shard]...)
	q.size++
	q.gauge(shard)
	q.cond.Signal()
}

// pop blocks until a run is available (the worker's own shard first, then
// stealing round-robin from the others) or the queue is closed (ok=false).
func (q *shardedQueue) pop(worker int) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		n := len(q.shards)
		for i := 0; i < n; i++ {
			s := (worker + i) % n
			if len(q.shards[s]) > 0 {
				id := q.shards[s][0]
				q.shards[s] = q.shards[s][1:]
				q.size--
				q.gauge(s)
				return id, true
			}
		}
		if q.closed {
			return "", false
		}
		q.cond.Wait()
	}
}

// tryPopAny pops from the first non-empty shard without blocking — the
// fleet claim handler polls it inside its own bounded wait loop.
func (q *shardedQueue) tryPopAny() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for s := range q.shards {
		if len(q.shards[s]) > 0 {
			id := q.shards[s][0]
			q.shards[s] = q.shards[s][1:]
			q.size--
			q.gauge(s)
			return id, true
		}
	}
	return "", false
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

// close wakes every blocked worker and makes pop return ok=false.
func (q *shardedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
