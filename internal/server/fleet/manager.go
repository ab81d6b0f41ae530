package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dyflow/internal/obs"
)

// Manager is the coordinator-side fleet state: which workers are
// registered and which runs they hold leases on. A lease is granted at
// claim time, renewed by heartbeats, and released by a result upload; a
// lease that lapses (worker crashed, hung, or partitioned) fires the
// expiry callback so the coordinator requeues the run — re-execution is
// exact because runs are deterministic, and at-most-once *observable*
// completion is preserved because Release rejects uploads whose lease is
// no longer current (the coordinator ignores them as stale).
type Manager struct {
	ttl      time.Duration
	onExpire func(runID, workerID string)

	mu        sync.Mutex
	workers   map[string]*WorkerInfo
	leases    map[string]*Lease // run ID → current lease
	metrics   map[string]obs.Snapshot
	nextW     int
	nextLease int
	closed    bool

	stop chan struct{}
	done chan struct{}

	workersGauge *obs.Gauge   // dyflow_server_fleet_workers
	claims       *obs.Counter // dyflow_server_fleet_claims_total
	heartbeats   *obs.Counter // dyflow_server_fleet_heartbeats_total
	expiries     *obs.Counter // dyflow_server_fleet_lease_expiries_total
	results      *obs.Counter // dyflow_server_fleet_results_total
	stale        *obs.Counter // dyflow_server_fleet_stale_results_total
}

// WorkerInfo is one registered worker. Claims/Completed/Failed/Canceled
// are per-worker lifetime outcome counters; LastSeenAgeMs is computed at
// snapshot time (Workers) so the fleet view carries liveness directly
// instead of making every consumer diff wall clocks.
type WorkerInfo struct {
	ID            string    `json:"id"`
	Name          string    `json:"name"`
	Slots         int       `json:"slots"`
	RegisteredAt  time.Time `json:"registered_at"`
	LastSeen      time.Time `json:"last_seen"`
	LastSeenAgeMs int64     `json:"last_seen_age_ms"`
	Active        int       `json:"active"` // leases currently held
	Claims        int64     `json:"claims"`
	Completed     int64     `json:"completed"`
	Failed        int64     `json:"failed"`
	Canceled      int64     `json:"canceled"`
}

// Lease is one worker's claim on one run.
type Lease struct {
	ID       string
	RunID    string
	WorkerID string
	Expires  time.Time
}

// NewManager builds a lease manager with the given TTL (0 means 10s) and
// starts its expiry sweep. onExpire is invoked — without the manager lock
// held — for every lease that lapses; the coordinator requeues the run
// there. Close stops the sweep.
func NewManager(reg *obs.Registry, ttl time.Duration, onExpire func(runID, workerID string)) *Manager {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		ttl:      ttl,
		onExpire: onExpire,
		workers:  map[string]*WorkerInfo{},
		leases:   map[string]*Lease{},
		metrics:  map[string]obs.Snapshot{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		workersGauge: reg.Gauge("dyflow_server_fleet_workers",
			"Fleet workers currently registered with the coordinator.").With(),
		claims: reg.Counter("dyflow_server_fleet_claims_total",
			"Runs claimed by fleet workers.").With(),
		heartbeats: reg.Counter("dyflow_server_fleet_heartbeats_total",
			"Lease heartbeats accepted from fleet workers.").With(),
		expiries: reg.Counter("dyflow_server_fleet_lease_expiries_total",
			"Leases that lapsed without a result, requeueing the run.").With(),
		results: reg.Counter("dyflow_server_fleet_results_total",
			"Results accepted from fleet workers under a valid lease.").With(),
		stale: reg.Counter("dyflow_server_fleet_stale_results_total",
			"Result uploads ignored because the lease was no longer current.").With(),
	}
	go m.sweep()
	return m
}

// TTL returns the lease TTL workers must heartbeat within.
func (m *Manager) TTL() time.Duration { return m.ttl }

// sweep expires lapsed leases a few times per TTL.
func (m *Manager) sweep() {
	defer close(m.done)
	every := m.ttl / 4
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			var lapsed []*Lease
			m.mu.Lock()
			for runID, l := range m.leases {
				if now.After(l.Expires) {
					delete(m.leases, runID)
					if w := m.workers[l.WorkerID]; w != nil {
						w.Active--
					}
					lapsed = append(lapsed, l)
				}
			}
			m.mu.Unlock()
			for _, l := range lapsed {
				m.expiries.Inc()
				if m.onExpire != nil {
					m.onExpire(l.RunID, l.WorkerID)
				}
			}
		}
	}
}

// Register adds a worker under a newly minted ID and returns it.
func (m *Manager) Register(name string, slots int) string {
	return m.RegisterAs("", name, slots)
}

// RegisterAs adds a worker under the ID its caller reserved ("" mints the
// next worker-NNNN) and returns the ID.
func (m *Manager) RegisterAs(id, name string, slots int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == "" {
		id = fmt.Sprintf("worker-%04d", m.nextW)
		m.nextW++
	}
	if name == "" {
		name = id
	}
	now := time.Now()
	m.workers[id] = &WorkerInfo{ID: id, Name: name, Slots: slots, RegisteredAt: now, LastSeen: now}
	m.workersGauge.Set(float64(len(m.workers)))
	return id
}

// Grant leases a run to a registered worker.
func (m *Manager) Grant(workerID, runID string) (leaseID string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[workerID]
	if w == nil {
		return "", fmt.Errorf("fleet: unknown worker %q", workerID)
	}
	if have := m.leases[runID]; have != nil {
		return "", fmt.Errorf("fleet: run %s already leased to %s", runID, have.WorkerID)
	}
	leaseID = fmt.Sprintf("lease-%06d", m.nextLease)
	m.nextLease++
	m.leases[runID] = &Lease{ID: leaseID, RunID: runID, WorkerID: workerID, Expires: time.Now().Add(m.ttl)}
	w.Active++
	w.Claims++
	w.LastSeen = time.Now()
	m.claims.Inc()
	return leaseID, nil
}

// Heartbeat renews a lease, reporting whether it is still current.
func (m *Manager) Heartbeat(workerID, runID, leaseID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.leases[runID]
	if l == nil || l.WorkerID != workerID || l.ID != leaseID {
		return false
	}
	l.Expires = time.Now().Add(m.ttl)
	if w := m.workers[workerID]; w != nil {
		w.LastSeen = time.Now()
	}
	m.heartbeats.Inc()
	return true
}

// Release consumes a lease for a result upload. It reports false — and the
// coordinator ignores the upload — when the lease is not current: expired
// and requeued, revoked by cancellation, or held by another worker. This
// is the at-most-once gate: only the holder of the live lease can finish
// the run.
func (m *Manager) Release(workerID, runID, leaseID string) bool {
	m.mu.Lock()
	l := m.leases[runID]
	ok := l != nil && l.WorkerID == workerID && l.ID == leaseID
	if ok {
		delete(m.leases, runID)
		if w := m.workers[workerID]; w != nil {
			w.Active--
			w.LastSeen = time.Now()
		}
	}
	m.mu.Unlock()
	if ok {
		m.results.Inc()
	} else {
		m.stale.Inc()
	}
	return ok
}

// Revoke drops a run's lease without a result (cancellation, shutdown). A
// later upload from the old holder is rejected as stale.
func (m *Manager) Revoke(runID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.leases[runID]; l != nil {
		delete(m.leases, runID)
		if w := m.workers[l.WorkerID]; w != nil {
			w.Active--
		}
	}
}

// Leased reports whether a run currently has a live lease.
func (m *Manager) Leased(runID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leases[runID] != nil
}

// LeasedRuns returns the IDs of all currently leased runs.
func (m *Manager) LeasedRuns() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.leases))
	for id := range m.leases {
		out = append(out, id)
	}
	return out
}

// Touch marks a worker alive without any lease activity — empty-queue
// claim polls still prove liveness — and reports whether it is registered.
func (m *Manager) Touch(workerID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[workerID]
	if w != nil {
		w.LastSeen = time.Now()
	}
	return w != nil
}

// NoteOutcome records one finished run against the worker that uploaded
// it: outcome is "done", "failed", or "canceled".
func (m *Manager) NoteOutcome(workerID, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[workerID]
	if w == nil {
		return
	}
	switch outcome {
	case "failed":
		w.Failed++
	case "canceled":
		w.Canceled++
	case "done":
		w.Completed++
	}
}

// SetWorkerMetrics stores a worker's pushed registry snapshot, replacing
// the previous push. It reports false for unknown workers (the push is
// dropped rather than resurrecting a deregistered ID).
func (m *Manager) SetWorkerMetrics(workerID string, snap obs.Snapshot) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.workers[workerID] == nil {
		return false
	}
	m.metrics[workerID] = snap
	m.workers[workerID].LastSeen = time.Now()
	return true
}

// MetricsSnapshots returns each worker's last pushed snapshot, keyed by
// worker ID.
func (m *Manager) MetricsSnapshots() map[string]obs.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]obs.Snapshot, len(m.metrics))
	for id, snap := range m.metrics {
		out[id] = snap
	}
	return out
}

// Workers snapshots the registered workers (the GET /v1/fleet view),
// sorted by ID, with heartbeat age stamped.
func (m *Manager) Workers() []WorkerInfo {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerInfo, 0, len(m.workers))
	for _, w := range m.workers {
		info := *w
		info.LastSeenAgeMs = now.Sub(w.LastSeen).Milliseconds()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close stops the expiry sweep. Held leases are left in place (the
// process is going away with them).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}
