// Checkpoint/restore for the orchestrator: a deterministic snapshot of the
// full orchestration state — Decision history windows and gates, T_waiting
// with Recovery flags and cooldown deadlines, open suggestion lifecycle
// records, sensor worker cursors, and the bus's in-flight queues — encoded
// as one checkpoint blob. A kill at a round boundary is lossless: the killed
// orchestrator's blob, restored into a rebuilt orchestrator, continues the
// campaign as if never killed.
package core

import (
	"dyflow/internal/ckpt"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// SnapshotKind tags the full-orchestrator checkpoint record.
const SnapshotKind = "dyflow-core"

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

// Checkpoint encodes the orchestrator's Snapshot as a checkpoint blob. The
// same rules as Snapshot apply: driver context, arbiter not Busy().
func (o *Orchestrator) Checkpoint() ([]byte, error) {
	return ckpt.Encode(SnapshotKind, o.Snapshot())
}

// Restore replaces the orchestrator's state with the one a Checkpoint blob
// holds. Call on a freshly built (not yet started) orchestrator over the
// same compiled spec; the subsequent Start resumes every stage exactly where
// the checkpoint left it — including mid-sleep sensor workers and the
// arbiter's warm-up origin.
func (o *Orchestrator) Restore(blob []byte) error {
	var snap Snapshot
	if err := ckpt.Decode(blob, SnapshotKind, &snap); err != nil {
		return err
	}
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
	return nil
}
