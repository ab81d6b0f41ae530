// Checkpoint/restore for the orchestrator: a deterministic snapshot of the
// full orchestration state — Decision history windows and gates, T_waiting
// with Recovery flags and cooldown deadlines, open suggestion lifecycle
// records, sensor worker cursors, and the bus's in-flight queues — plus a
// write-ahead journal of arbitration rounds appended between snapshots.
// Together they make an orchestrator crash at a round boundary lossless: a
// rebuilt orchestrator restored from the snapshot (with the journal
// replayed on top) continues the campaign as if never killed.
package core

import (
	"encoding/json"
	"errors"

	"dyflow/internal/ckpt"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// Record kinds in the checkpoint store.
const (
	// SnapshotKind tags the full-orchestrator snapshot blob.
	SnapshotKind = "dyflow-core"
	// RoundKind tags one arbitration-round journal entry.
	RoundKind = "arbiter-round"
)

// Snapshot is the orchestrator's full checkpointable state.
type Snapshot struct {
	At       sim.Time                `json:"at"`
	Decision decision.Snapshot       `json:"decision"`
	Arbiter  arbiter.Snapshot        `json:"arbiter"`
	Server   sensor.ServerSnapshot   `json:"server"`
	Clients  []sensor.ClientSnapshot `json:"clients,omitempty"`
	Trace    trace.State             `json:"trace"`
	Bus      msg.BusSnapshot         `json:"bus"`
}

// Snapshot captures the orchestrator's state. Take it from driver context
// between simulation runs (every stage parked) and only while the arbiter
// is not Busy(): a mid-round arbiter has un-serializable state on its
// process stack. The chaos harness defers kills to the next quiescent
// boundary for exactly this reason.
func (o *Orchestrator) Snapshot() Snapshot {
	snap := Snapshot{
		At:       o.env.Sim.Now(),
		Decision: o.Decision.Snapshot(),
		Arbiter:  o.Arbiter.Snapshot(),
		Server:   o.Server.Snapshot(),
		Trace:    o.Trace.State(),
		Bus:      o.Bus.Snapshot(),
	}
	for _, c := range o.Clients {
		snap.Clients = append(snap.Clients, c.Snapshot())
	}
	return snap
}

// Restore replaces the orchestrator's state with the snapshot. Call on a
// freshly built (not yet started) orchestrator over the same compiled
// spec; the subsequent Start resumes every stage exactly where the
// snapshot left it — including mid-sleep sensor workers and the arbiter's
// warm-up origin.
func (o *Orchestrator) Restore(snap Snapshot) {
	o.Bus.Restore(snap.Bus)
	o.Decision.Restore(snap.Decision)
	o.Arbiter.Restore(snap.Arbiter)
	o.Server.Restore(snap.Server)
	for i, cs := range snap.Clients {
		if i < len(o.Clients) {
			o.Clients[i].Restore(cs)
		}
	}
	o.Trace.Restore(snap.Trace)
}

// SetStore attaches a checkpoint store: Checkpoint() saves snapshots to it
// and every completed arbitration round — executed or empty — is appended
// to its write-ahead journal as it happens.
func (o *Orchestrator) SetStore(st *ckpt.Store) {
	o.store = st
	o.Arbiter.OnRound(func(ev arbiter.RoundEvent) {
		if o.detached || o.store == nil {
			return
		}
		// Journal write failures must not take the round down with them;
		// the next full snapshot re-covers the state.
		_ = o.store.Append(RoundKind, ev)
	})
}

// Store returns the attached checkpoint store (nil if none).
func (o *Orchestrator) Store() *ckpt.Store { return o.store }

// Checkpoint writes a full snapshot to the attached store, resetting the
// journal (a snapshot subsumes every round journaled before it).
func (o *Orchestrator) Checkpoint() error {
	if o.store == nil {
		return errors.New("core: no checkpoint store attached (SetStore)")
	}
	blob, err := ckpt.Encode(SnapshotKind, o.Snapshot())
	if err != nil {
		return err
	}
	return o.store.SaveSnapshot(blob)
}

// Restore loads the last snapshot from the store into the freshly built
// orchestrator and replays the journal on top: arbitration rounds recorded
// after the snapshot re-apply their T_waiting queues (Recovery entries
// included), settle/cooldown deadlines, and round accounting. A torn
// journal tail (the crash cut a write short) is dropped by the store.
func Restore(o *Orchestrator, st *ckpt.Store) error {
	blob, err := st.LoadSnapshot()
	if err != nil {
		return err
	}
	var snap Snapshot
	if err := ckpt.Decode(blob, SnapshotKind, &snap); err != nil {
		return err
	}
	o.Restore(snap)
	return st.Replay(func(rec ckpt.Record) error {
		if rec.Kind != RoundKind {
			return nil
		}
		var ev arbiter.RoundEvent
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			return err
		}
		o.Arbiter.ApplyRound(ev)
		return nil
	})
}
