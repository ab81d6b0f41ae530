package sensor

import (
	"slices"
	"sort"

	"dyflow/internal/sim"
	"dyflow/internal/stream"
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

// ServerSnapshot is the Monitor server's checkpointable state: the latest
// value per series (the join and group-by working set) and the per-series
// generation cursors. Map-keyed state is exported as sorted slices so
// snapshots are byte-stable. The forwarding counters and the detection
// lags are the flight recorder's, checkpointed with it.
type ServerSnapshot struct {
	Last    []SeriesEntry `json:"last,omitempty"`
	LastGen []GenEntry    `json:"last_gen,omitempty"`
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
	var snap ServerSnapshot
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
	return snap
}

// Restore replaces the server state with the snapshot, rebuilding the
// series and derivation-group indexes from it. Call before Start.
func (sv *Server) Restore(snap ServerSnapshot) {
	sv.series = make(map[Key]*series, len(snap.Last))
	sv.groups = make(map[groupKey]*group)
	for _, e := range snap.Last {
		s := sv.lookup(e.Key)
		e.Metric.Series = s.desc
		sv.record(s, e.Metric)
	}
	for _, e := range snap.LastGen {
		s := sv.lookup(e.Key)
		s.gen, s.hasGen = e.At, true
	}
}

// Readings are a pending shipment's raw per-process values. Until ship
// sanitizes them they may hold NaN or ±Inf: they encode as a staged
// record's values do (stream.Floats), so a client that owes such a
// shipment can still be checkpointed.
type Readings = stream.Floats

// WorkerSnap is one client worker's checkpointed position.
type WorkerSnap struct {
	Name  string      `json:"name"`
	State WorkerState `json:"state"`
}

// ClientSnapshot is one Monitor client's checkpointable state: every
// worker's resumable position (phase, wake instant, pending shipment,
// reader backlog).
type ClientSnapshot struct {
	Name    string       `json:"name"`
	Workers []WorkerSnap `json:"workers,omitempty"`
}

// Snapshot exports the client state, workers sorted by name. It aliases no
// live worker state: a pending shipment is copied. For a worker
// blocked on a live stream reader the snapshot folds the reader's buffered
// backlog in behind any replay-pending records, preserving delivery order.
func (c *Client) Snapshot() ClientSnapshot {
	snap := ClientSnapshot{Name: c.name}
	names := make([]string, 0, len(c.states))
	for n := range c.states {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := c.states[n]
		ws := WorkerState{Phase: st.Phase, WakeAt: st.WakeAt}
		if st.Pending != nil {
			// A copy: the live one is the worker's reused pend, and a
			// single reading is its reused one slot.
			ws.Pending = &PendingShip{Readings: slices.Clone(st.Pending.Readings), Step: st.Pending.Step, GenAt: st.Pending.GenAt}
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
	c.states = make(map[string]*WorkerState, len(snap.Workers))
	for _, w := range snap.Workers {
		ws := w.State
		c.states[w.Name] = &ws
	}
}
