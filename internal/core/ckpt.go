// Checkpoint/restore for the orchestrator: a deterministic snapshot of what
// the orchestrator steers by — Decision history windows and gates, T_waiting
// with Recovery flags and cooldown deadlines, sensor worker cursors, and the
// bus's in-flight queues — encoded as one checkpoint blob. A kill at a round
// boundary is lossless: the killed orchestrator's blob, restored into an
// orchestrator rebuilt over the same flight recorder and round log,
// continues the campaign as if never killed. Neither is in the blob: like
// the metrics registry they belong to the world and outlive every
// orchestrator built over it.
//
// This file owns the blob's schema: what lives as a descriptor — a queued
// message's series or rule — is held as its record type, turned back into a
// live value on Restore, or rejected.
package core

import (
	"encoding/json"
	"fmt"

	"dyflow/internal/ckpt"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
)

// SnapshotKind tags the full-orchestrator checkpoint record.
const SnapshotKind = "dyflow-core"

// Snapshot is the orchestrator's checkpointable state: every stage's, and
// the bus's in-flight queues. Spans, stage counters, queue depths, latency
// histograms and the actuation op log are the flight recorder's, and the
// executed arbitration rounds are the round log's; the restored
// orchestrator is built with both, so no snapshot holds them.
type Snapshot struct {
	At       sim.Time              `json:"at"`
	Decision decision.Snapshot     `json:"decision"`
	Arbiter  arbiter.Snapshot      `json:"arbiter"`
	Server   sensor.ServerSnapshot `json:"server"`
	Client   sensor.ClientSnapshot `json:"client"`
	Bus      msg.BusSnapshot       `json:"bus"`
}

// Snapshot captures the orchestrator's state. Take it from driver context
// between simulation runs (every stage parked) and only while the arbiter
// is not Busy(): a mid-round arbiter has un-serializable state on its
// process stack. The chaos harness defers kills to the next quiescent
// boundary for exactly this reason.
func (o *Orchestrator) Snapshot() Snapshot {
	return Snapshot{
		At:       o.env.Sim.Now(),
		Decision: o.Decision.Snapshot(),
		Arbiter:  o.Arbiter.Snapshot(),
		Server:   o.Server.Snapshot(),
		Client:   o.Client.Snapshot(),
		Bus:      o.Bus.Snapshot(),
	}
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
// arbiter's warm-up origin. A blob holding a record no live value can
// represent — a queued message whose granularity does not parse, a
// suggestion whose ID is not its own — is an error; the orchestrator must
// then not be started.
func (o *Orchestrator) Restore(blob []byte) error {
	var snap Snapshot
	if err := ckpt.Decode(blob, SnapshotKind, &snap); err != nil {
		return err
	}
	if err := o.Bus.Restore(snap.Bus); err != nil {
		return err
	}
	o.Decision.Restore(snap.Decision)
	o.Arbiter.Restore(snap.Arbiter)
	o.Server.Restore(snap.Server)
	o.Client.Restore(snap.Client)
	return nil
}

// encodePayload encodes a payload queued on endpoint to as its record's
// JSON. The stages send three payload types, one to each receiver.
func encodePayload(to string, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case *sensor.Batch:
		return json.Marshal(p.Record())
	case *sensor.MetricList:
		return json.Marshal(ckpt.Map(p.Msgs, sensor.MetricMsg.Record))
	case *decision.Round:
		return json.Marshal(ckpt.Map(p.Sugs, decision.Suggestion.Record))
	}
	return nil, fmt.Errorf("core: no record holds a %T queued on %q", payload, to)
}

// decodePayload decodes a payload queued on endpoint to from its record's
// JSON into the type its receiver reads. A payload it returns has no
// sender to go back to, so its release does nothing.
func decodePayload(to string, data []byte) (any, error) {
	switch to {
	case EndpointMonitorServer:
		return decode(data, func(r sensor.BatchRecord) (*sensor.Batch, error) {
			b, err := r.Live()
			return &b, err
		})
	case EndpointDecision:
		return decode(data, func(rs []sensor.MetricMsgRecord) (*sensor.MetricList, error) {
			msgs, err := ckpt.TryMap(rs, sensor.MetricMsgRecord.Live)
			return &sensor.MetricList{Msgs: msgs}, err
		})
	case EndpointArbiter:
		return decode(data, func(rs []decision.SuggestionRecord) (*decision.Round, error) {
			sugs, err := ckpt.TryMap(rs, decision.SuggestionRecord.Live)
			return &decision.Round{Sugs: sugs}, err
		})
	}
	return nil, fmt.Errorf("core: nothing is sent to endpoint %q", to)
}

// decode decodes data as a record R and returns the live value it holds.
func decode[R, H any](data []byte, live func(R) (H, error)) (any, error) {
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return live(r)
}
