package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dyflow/internal/obs"
)

// Manager is the coordinator's worker registry: who has joined the fleet,
// when each was last heard from, what each has claimed and finished, and
// the registry snapshot each last pushed. It holds no lease. Which worker
// holds which run is run state, kept on the run by the coordinator
// (internal/server/lifecycle.go); the coordinator notes here what its
// workers did.
type Manager struct {
	mu      sync.Mutex
	workers map[string]*WorkerInfo
	metrics map[string]obs.Snapshot
	nextW   int

	workersGauge *obs.Gauge // dyflow_server_fleet_workers
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
	// Active is the number of leases the worker holds: the coordinator
	// counts it from its runs when it renders GET /v1/fleet.
	Active    int   `json:"active"`
	Claims    int64 `json:"claims"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
}

// NewManager builds an empty registry.
func NewManager(reg *obs.Registry) *Manager {
	return &Manager{
		workers: map[string]*WorkerInfo{},
		metrics: map[string]obs.Snapshot{},
		workersGauge: reg.Gauge("dyflow_server_fleet_workers",
			"Fleet workers currently registered with the coordinator.").With(),
	}
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

// Touch marks a worker alive — a heartbeat, a run handed back, a claim poll
// that found the queue empty — and reports whether it is registered.
func (m *Manager) Touch(workerID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[workerID]
	if w != nil {
		w.LastSeen = time.Now()
	}
	return w != nil
}

// NoteOutcome records what came of a call the worker made: outcome is
// "claimed" for a claim that leased it a run, and "done", "failed" or
// "canceled" for a result that finished one.
func (m *Manager) NoteOutcome(workerID, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[workerID]
	if w == nil {
		return
	}
	w.LastSeen = time.Now()
	switch outcome {
	case "claimed":
		w.Claims++
	case "failed":
		w.Failed++
	case "canceled":
		w.Canceled++
	case "done":
		w.Completed++
	}
}

// SetWorkerMetrics stores a worker's pushed registry snapshot, replacing
// the previous push. It reports false for a worker that never registered.
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
