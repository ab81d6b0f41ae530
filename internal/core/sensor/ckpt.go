package sensor

import (
	"sort"

	"dyflow/internal/sim"
	"dyflow/internal/stats"
)

// SeriesEntry is one (key, latest metric) pair in a server snapshot.
type SeriesEntry struct {
	Key    Key    `json:"key"`
	Metric Metric `json:"metric"`
}

// GenEntry is one (key, last generation time) pair — the server's
// detection-dedup cursor for a series.
type GenEntry struct {
	Key Key      `json:"key"`
	At  sim.Time `json:"at"`
}

// LagEntry is one sensor's accumulated detection-lag statistics.
type LagEntry struct {
	Sensor string             `json:"sensor"`
	Lag    stats.WelfordState `json:"lag"`
}

// ServerSnapshot is the Monitor server's checkpointable state: the
// out-of-order filter marks, the latest value per series (the join and
// group-by working set), the per-series generation cursors, per-sensor lag
// accumulators, and the forwarding counters. Map-keyed state is exported
// as sorted slices so snapshots are byte-stable.
type ServerSnapshot struct {
	Filter    map[string]uint64 `json:"filter,omitempty"`
	Last      []SeriesEntry     `json:"last,omitempty"`
	LastGen   []GenEntry        `json:"last_gen,omitempty"`
	Lags      []LagEntry        `json:"lags,omitempty"`
	Forwarded int               `json:"forwarded"`
	Repolled  int               `json:"repolled"`
	Dropped   int               `json:"dropped"`
}

func keyLess(a, b Key) bool {
	if a.Workflow != b.Workflow {
		return a.Workflow < b.Workflow
	}
	if a.Task != b.Task {
		return a.Task < b.Task
	}
	if a.Sensor != b.Sensor {
		return a.Sensor < b.Sensor
	}
	if a.Granularity != b.Granularity {
		return a.Granularity < b.Granularity
	}
	return a.Node < b.Node
}

// Snapshot exports the server state.
func (sv *Server) Snapshot() ServerSnapshot {
	snap := ServerSnapshot{
		Filter:    sv.filter.State(),
		Forwarded: sv.forwarded,
		Repolled:  sv.repolled,
		Dropped:   sv.dropped,
	}
	for k, s := range sv.series {
		if s.hasM {
			snap.Last = append(snap.Last, SeriesEntry{Key: k, Metric: s.m})
		}
		if s.hasGen {
			snap.LastGen = append(snap.LastGen, GenEntry{Key: k, At: s.gen})
		}
	}
	sort.Slice(snap.Last, func(i, j int) bool { return keyLess(snap.Last[i].Key, snap.Last[j].Key) })
	sort.Slice(snap.LastGen, func(i, j int) bool { return keyLess(snap.LastGen[i].Key, snap.LastGen[j].Key) })
	for id, w := range sv.lags {
		snap.Lags = append(snap.Lags, LagEntry{Sensor: id, Lag: w.State()})
	}
	sort.Slice(snap.Lags, func(i, j int) bool { return snap.Lags[i].Sensor < snap.Lags[j].Sensor })
	return snap
}

// Restore replaces the server state with the snapshot, rebuilding the
// series and derivation-group indexes from it. Call before Start.
func (sv *Server) Restore(snap ServerSnapshot) {
	sv.filter.RestoreState(snap.Filter)
	sv.forwarded = snap.Forwarded
	sv.repolled = snap.Repolled
	sv.dropped = snap.Dropped
	sv.series = make(map[Key]*series, len(snap.Last))
	sv.groups = make(map[groupKey]*group)
	for _, e := range snap.Last {
		sv.record(sv.lookup(e.Key), e.Metric)
	}
	for _, e := range snap.LastGen {
		s := sv.lookup(e.Key)
		s.gen, s.hasGen = e.At, true
	}
	sv.lags = make(map[string]*stats.Welford, len(snap.Lags))
	for _, e := range snap.Lags {
		sv.lags[e.Sensor] = stats.RestoreWelford(e.Lag)
	}
}

// WorkerSnap is one client worker's checkpointed position.
type WorkerSnap struct {
	Name  string      `json:"name"`
	State WorkerState `json:"state"`
}

// ClientSnapshot is one Monitor client's checkpointable state: the batch
// counter and every worker's resumable position (phase, wake instant,
// pending shipment, reader backlog).
type ClientSnapshot struct {
	Name    string       `json:"name"`
	Sent    int          `json:"sent"`
	Workers []WorkerSnap `json:"workers,omitempty"`
}

// Snapshot exports the client state, workers sorted by name. For a worker
// blocked on a live stream reader the snapshot folds the reader's buffered
// backlog in behind any replay-pending records, preserving delivery order.
func (c *Client) Snapshot() ClientSnapshot {
	snap := ClientSnapshot{Name: c.name, Sent: c.sent}
	names := make([]string, 0, len(c.states))
	for n := range c.states {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := c.states[n]
		ws := WorkerState{
			Phase:   st.Phase,
			WakeAt:  st.WakeAt,
			Step:    st.Step,
			Pending: st.Pending,
		}
		ws.Buffered = append(ws.Buffered, st.Buffered...)
		if st.reader != nil {
			ws.Buffered = append(ws.Buffered, st.reader.Buffered()...)
		}
		snap.Workers = append(snap.Workers, WorkerSnap{Name: n, State: ws})
	}
	return snap
}

// Restore replaces the client's worker states with the snapshot. Call
// before Start; the spawned workers resume from the restored positions.
func (c *Client) Restore(snap ClientSnapshot) {
	c.sent = snap.Sent
	c.states = make(map[string]*WorkerState, len(snap.Workers))
	for _, w := range snap.Workers {
		ws := w.State
		c.states[w.Name] = &ws
	}
}
