package sensor

import (
	"encoding/json"
	"fmt"
	"math"
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
// group-by working set), the per-series generation cursors and per-sensor
// lag accumulators. Map-keyed state is exported as sorted slices so
// snapshots are byte-stable. The forwarding counters are the flight
// recorder's, checkpointed with it.
type ServerSnapshot struct {
	Filter  map[string]uint64 `json:"filter,omitempty"`
	Last    []SeriesEntry     `json:"last,omitempty"`
	LastGen []GenEntry        `json:"last_gen,omitempty"`
	Lags    []LagEntry        `json:"lags,omitempty"`
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
	snap := ServerSnapshot{Filter: sv.filter.State()}
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

// Readings are a pending shipment's raw per-process values. Until ship
// sanitizes them they may hold NaN or ±Inf, which JSON has no number for:
// those encode as the strings "NaN", "+Inf" and "-Inf", so a client that
// owes such a shipment can still be checkpointed. Finite readings encode
// exactly as a []float64 does.
type Readings []float64

// MarshalJSON implements json.Marshaler.
func (r Readings) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	out := []byte{'['}
	for i, v := range r {
		if i > 0 {
			out = append(out, ',')
		}
		switch {
		case math.IsNaN(v):
			out = append(out, `"NaN"`...)
		case math.IsInf(v, 1):
			out = append(out, `"+Inf"`...)
		case math.IsInf(v, -1):
			out = append(out, `"-Inf"`...)
		default:
			b, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			out = append(out, b...)
		}
	}
	return append(out, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Readings) UnmarshalJSON(data []byte) error {
	var elems []json.RawMessage
	if err := json.Unmarshal(data, &elems); err != nil {
		return err
	}
	if elems == nil {
		*r = nil
		return nil
	}
	out := make(Readings, len(elems))
	for i, e := range elems {
		if e[0] != '"' {
			if err := json.Unmarshal(e, &out[i]); err != nil {
				return err
			}
			continue
		}
		switch string(e) {
		case `"NaN"`:
			out[i] = math.NaN()
		case `"+Inf"`:
			out[i] = math.Inf(1)
		case `"-Inf"`:
			out[i] = math.Inf(-1)
		default:
			return fmt.Errorf("sensor: reading %s is not a number", e)
		}
	}
	*r = out
	return nil
}

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
		ws := WorkerState{
			Phase:  st.Phase,
			WakeAt: st.WakeAt,
			Step:   st.Step,
		}
		if st.Pending != nil {
			// A copy: the live one is the worker's reused pend.
			ws.Pending = &PendingShip{Readings: st.Pending.Readings, Step: st.Pending.Step, GenAt: st.Pending.GenAt}
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
