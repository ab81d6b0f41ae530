package arbiter

import (
	"sort"

	"dyflow/internal/sim"
)

// WaitingSnap is one workflow's T_waiting queue in a snapshot.
type WaitingSnap struct {
	Workflow string        `json:"workflow"`
	Tasks    []WaitingTask `json:"tasks"`
}

// Snapshot is the Arbitration stage's checkpointable state, what the
// engine steers by: T_waiting (with Recovery flags), the warm-up origin and
// the settle/FailureCooldown deadline. The executed rounds are not in it:
// they are the world's round log (Rounds), which the restored engine is
// built with. Take it only while the engine is not Busy().
type Snapshot struct {
	StartedAt   sim.Time      `json:"started_at"`
	SettleUntil sim.Time      `json:"settle_until"`
	Started     bool          `json:"started"`
	Waiting     []WaitingSnap `json:"waiting,omitempty"`
}

// Snapshot exports the engine state, workflows sorted by name.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{
		StartedAt:   e.startedAt,
		SettleUntil: e.settleUntil,
		Started:     e.started,
	}
	wfs := make([]string, 0, len(e.waiting))
	for wf := range e.waiting {
		wfs = append(wfs, wf)
	}
	sort.Strings(wfs)
	for _, wf := range wfs {
		snap.Waiting = append(snap.Waiting, WaitingSnap{
			Workflow: wf,
			Tasks:    append([]WaitingTask(nil), e.waiting[wf]...),
		})
	}
	return snap
}

// Restore replaces the engine state with the snapshot. Call before Start;
// with Started set, the subsequent Start keeps the restored warm-up origin
// instead of re-arming the warm-up window.
func (e *Engine) Restore(snap Snapshot) {
	e.startedAt = snap.StartedAt
	e.settleUntil = snap.SettleUntil
	e.started = snap.Started
	e.waiting = make(map[string][]WaitingTask, len(snap.Waiting))
	for _, ws := range snap.Waiting {
		e.waiting[ws.Workflow] = append([]WaitingTask(nil), ws.Tasks...)
	}
}
