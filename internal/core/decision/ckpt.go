package decision

import (
	"dyflow/internal/core/sensor"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
)

// SeriesSnap is one metric series' checkpointable state within a binding.
type SeriesSnap struct {
	Key      sensor.Key `json:"key"`
	Window   []float64  `json:"window,omitempty"` // history contents, oldest first
	Last     float64    `json:"last"`
	LastAt   sim.Time   `json:"last_at"`
	GenAt    sim.Time   `json:"gen_at"`
	Step     int        `json:"step"`
	Fresh    bool       `json:"fresh"`
	Interval sim.Time   `json:"interval"`
}

// BindingSnap is one policy binding's checkpointable state. Series appear
// in arrival order — the order the engine evaluates them in, which decides
// which satisfied series produces the suggestion.
type BindingSnap struct {
	Policy     string       `json:"policy"`
	Workflow   string       `json:"workflow"`
	AssessTask string       `json:"assess_task"`
	LastEval   sim.Time     `json:"last_eval"`
	EverEval   bool         `json:"ever_eval"`
	ResetAt    sim.Time     `json:"reset_at"`
	Series     []SeriesSnap `json:"series,omitempty"`
}

// Snapshot is the Decision stage's full checkpointable state: history
// windows, staleness/everEval gates, the suggestion counter and the
// evaluator's tick grid.
type Snapshot struct {
	Seq      int           `json:"seq"`
	NextEval sim.Time      `json:"next_eval"`
	Bindings []BindingSnap `json:"bindings"`
}

// Snapshot exports the engine state. Call while the engine is quiescent
// (parked between events) — i.e. from driver context between simulation
// runs, which is where checkpoints are taken.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{
		Seq:      e.seq,
		NextEval: e.nextEval,
	}
	for _, b := range e.bindings {
		bs := BindingSnap{
			Policy:     b.def.ID,
			Workflow:   b.bind.Workflow,
			AssessTask: b.bind.AssessTask,
			LastEval:   b.lastEval,
			EverEval:   b.everEval,
			ResetAt:    b.resetAt,
		}
		for i, st := range b.series {
			ss := SeriesSnap{
				Key:      b.order[i],
				Last:     st.last,
				LastAt:   st.lastAt,
				GenAt:    st.genAt,
				Step:     st.step,
				Fresh:    st.fresh,
				Interval: st.interval,
			}
			if st.window != nil {
				ss.Window = st.window.Values()
			}
			bs.Series = append(bs.Series, ss)
		}
		snap.Bindings = append(snap.Bindings, bs)
	}
	return snap
}

// Restore replaces the engine state with the snapshot. Bindings are matched
// by (policy, workflow, assess-task) against the compiled spec — a snapshot
// taken under a different spec restores only the bindings both share. Call
// before Start.
func (e *Engine) Restore(snap Snapshot) {
	e.seq = snap.Seq
	e.nextEval = snap.NextEval
	// The routes hold the states being replaced: each is rebuilt on its
	// series' next metric.
	e.routes = nil

	byID := make(map[[3]string]*binding, len(e.bindings))
	for _, b := range e.bindings {
		byID[[3]string{b.def.ID, b.bind.Workflow, b.bind.AssessTask}] = b
	}
	for _, bs := range snap.Bindings {
		b, ok := byID[[3]string{bs.Policy, bs.Workflow, bs.AssessTask}]
		if !ok {
			continue
		}
		b.lastEval = bs.LastEval
		b.everEval = bs.EverEval
		b.resetAt = bs.ResetAt
		b.order, b.series = b.order[:0], b.series[:0]
		for _, ss := range bs.Series {
			st := &seriesState{
				last:     ss.Last,
				lastAt:   ss.LastAt,
				genAt:    ss.GenAt,
				step:     ss.Step,
				fresh:    ss.Fresh,
				interval: ss.Interval,
			}
			if b.def.History != nil {
				st.window = stats.NewWindow(b.def.History.Window)
				st.window.Restore(ss.Window)
			}
			b.order = append(b.order, ss.Key)
			b.series = append(b.series, st)
		}
	}
}
