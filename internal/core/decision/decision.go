// Package decision implements DYFLOW's Decision stage (paper §2.2, §3): it
// screens incoming sensor metrics, maps them to the user's policies,
// maintains per-policy history windows with pre-analysis, gates evaluation
// by each policy's frequency, and emits suggested high-level actions to the
// Arbitration stage as a single JSON message per evaluation round.
package decision

import (
	"fmt"
	"time"

	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
	"dyflow/internal/trace"
)

// Suggestion is one suggested high-level action (Decision -> Arbitration).
type Suggestion struct {
	// ID correlates this suggestion's lifecycle span across the stages
	// (minted here, carried through Arbitration and Actuation records).
	ID         string            `json:"id,omitempty"`
	Workflow   string            `json:"workflow"`
	PolicyID   string            `json:"policy"`
	Action     string            `json:"action"`
	AssessTask string            `json:"assess_task"`
	ActOnTasks []string          `json:"act_on_tasks"`
	Params     map[string]string `json:"params,omitempty"`
	// MetricValue is the (pre-analyzed) value that satisfied the condition.
	MetricValue float64 `json:"metric_value"`
	// Step is the source timestep associated with the triggering metric.
	Step int `json:"step,omitempty"`
	// GeneratedAt is when the underlying data was produced; ObservedAt is
	// when the Monitor server forwarded the triggering metric; DecidedAt is
	// when the policy fired. Their differences plus transport are the
	// event-to-response-initiation lags of §4.6.
	GeneratedAt int64 `json:"generated_at"`
	ObservedAt  int64 `json:"observed_at,omitempty"`
	DecidedAt   int64 `json:"decided_at"`
}

// ParsedAction returns the typed action.
func (s *Suggestion) ParsedAction() (spec.Action, error) { return spec.ParseAction(s.Action) }

// staleFactor is how many missed arrival intervals a series survives before
// it is considered stale and stops feeding evaluations.
const staleFactor = 3

// seriesState tracks one metric series feeding a policy binding.
type seriesState struct {
	window *stats.Window // nil when the policy has no history
	last   float64
	lastAt sim.Time
	genAt  sim.Time
	step   int
	fresh  bool // a value arrived since the last evaluation
	// interval is the observed time between the last two arrivals; it sets
	// the staleness horizon (zero until two arrivals have been seen).
	interval sim.Time
}

// live reports whether the series may feed an evaluation at now: it is
// either fresh (data arrived since the last round) or recent enough — within
// staleFactor observed arrival intervals. A series whose producer stopped
// (e.g. the assessed task ended) goes stale after a few missed periods
// instead of re-firing its frozen window forever. With a single arrival the
// cadence is unknown and the series stays live, matching the pre-horizon
// behaviour.
func (st *seriesState) live(now sim.Time) bool {
	if st.fresh {
		return true
	}
	if st.lastAt == 0 {
		return false
	}
	if st.interval == 0 {
		return true
	}
	return now-st.lastAt <= staleFactor*st.interval
}

// binding is one policy applied to one assess-task.
type binding struct {
	def      *spec.PolicyDef
	bind     spec.PolicyBinding
	series   map[sensor.Key]*seriesState
	order    []sensor.Key // deterministic evaluation order
	lastEval sim.Time
	// everEval distinguishes "never evaluated" from "evaluated at t=0":
	// lastEval alone cannot, and treating t=0 as never makes the binding
	// re-evaluate on every tick.
	everEval bool
	// resetAt is the last ResetTask instant; metrics generated before it
	// describe the previous incarnation and are dropped.
	resetAt sim.Time
}

// anyLive reports whether any series can feed an evaluation at now.
func (b *binding) anyLive(now sim.Time) bool {
	for _, k := range b.order {
		if b.series[k].live(now) {
			return true
		}
	}
	return false
}

// matches reports whether the metric belongs to this binding.
func (b *binding) matches(m sensor.Metric) bool {
	if m.Key.Workflow != b.bind.Workflow {
		return false
	}
	for _, ref := range b.def.Sensors {
		if ref.SensorID != m.Key.Sensor || ref.Granularity != m.Key.Granularity {
			continue
		}
		switch m.Key.Granularity {
		case spec.GranTask, spec.GranNodeTask:
			if m.Key.Task == b.bind.AssessTask {
				return true
			}
		case spec.GranWorkflow, spec.GranNodeWorkflow:
			return true
		}
	}
	return false
}

func (b *binding) ingest(m sensor.Metric) {
	if b.resetAt > 0 && m.GeneratedAt <= b.resetAt {
		// In-flight data from before the assessed task's restart: acting
		// on it would re-trigger the action that caused the restart.
		return
	}
	st, ok := b.series[m.Key]
	if !ok {
		st = &seriesState{}
		if b.def.History != nil {
			st.window = stats.NewWindow(b.def.History.Window)
		}
		b.series[m.Key] = st
		b.order = append(b.order, m.Key)
	}
	if st.window != nil {
		st.window.Push(m.Value)
	}
	if st.lastAt > 0 && m.ObservedAt > st.lastAt {
		st.interval = m.ObservedAt - st.lastAt
	}
	st.last = m.Value
	st.lastAt = m.ObservedAt
	st.genAt = m.GeneratedAt
	st.step = m.Step
	st.fresh = true
}

// value computes the series' evaluation input: the pre-analyzed history
// reduction when history is configured, the instantaneous value otherwise.
func (st *seriesState) value(def *spec.PolicyDef) (float64, bool) {
	if st.window != nil {
		return st.window.Reduce(def.History.Op)
	}
	return st.last, st.lastAt > 0 || st.fresh
}

// Engine is the Decision stage runtime. It runs two processes: a receiver
// that screens and stores incoming metrics, and an evaluator that triggers
// each policy's condition at its configured frequency ("every policy has a
// defined frequency to decide when to trigger the evaluation condition")
// and ships the round's suggestions as a single message to Arbitration.
type Engine struct {
	s        *sim.Sim
	ep       *msg.Endpoint
	out      string
	cfg      *spec.Config
	filter   *msg.OrderFilter
	bindings []*binding
	recvProc *sim.Proc
	evalProc *sim.Proc
	tr       *trace.Recorder
	spawn    func(name string, fn func(*sim.Proc)) *sim.Proc

	seq int // suggestion ID counter
	// nextEval is the evaluator's next scheduled tick; checkpointed so a
	// restored engine keeps the same evaluation grid (a shifted grid changes
	// which gather window suggestions land in).
	nextEval sim.Time
}

// New creates the Decision engine reading metrics from its endpoint and
// sending suggestion batches to the out endpoint (the Arbitration stage).
func New(s *sim.Sim, bus *msg.Bus, name, out string, cfg *spec.Config) *Engine {
	e := &Engine{
		s:      s,
		ep:     bus.Endpoint(name),
		out:    out,
		cfg:    cfg,
		filter: msg.NewOrderFilter(),
	}
	for _, pb := range cfg.Bindings {
		def := cfg.Policies[pb.PolicyID]
		if def == nil {
			continue
		}
		e.bindings = append(e.bindings, &binding{
			def:    def,
			bind:   pb,
			series: make(map[sensor.Key]*seriesState),
		})
	}
	return e
}

// SetTracer attaches the flight recorder; suggestions emitted afterwards
// open lifecycle spans on it. The recorder owns the stage's counters:
// decision.evaluations, decision.suggestions and
// decision.metrics_ingested.
func (e *Engine) SetTracer(tr *trace.Recorder) { e.tr = tr }

// SetSpawner overrides how the engine spawns its processes (the supervisor
// injects a panic-guarded spawner here). Call before Start.
func (e *Engine) SetSpawner(spawn func(name string, fn func(*sim.Proc)) *sim.Proc) {
	e.spawn = spawn
}

func (e *Engine) spawnProc(name string, fn func(*sim.Proc)) *sim.Proc {
	if e.spawn != nil {
		return e.spawn(name, fn)
	}
	return e.s.Spawn(name, fn)
}

// Start spawns the engine processes.
func (e *Engine) Start() {
	e.recvProc = e.spawnProc("decision-recv", e.run)
	e.evalProc = e.spawnProc("decision-eval", e.evalLoop)
}

// Stop interrupts the engine processes.
func (e *Engine) Stop() {
	if e.recvProc != nil {
		e.recvProc.Interrupt(nil)
	}
	if e.evalProc != nil {
		e.evalProc.Interrupt(nil)
	}
}

// ResetTask discards series state for a task that was just (re)started, so
// pre-restart history does not immediately re-trigger policies. The
// orchestrator calls this on task-start events.
func (e *Engine) ResetTask(workflow, taskName string) {
	for _, b := range e.bindings {
		if b.bind.Workflow != workflow || b.bind.AssessTask != taskName {
			continue
		}
		b.resetAt = e.s.Now()
		for _, k := range b.order {
			if st := b.series[k]; st != nil {
				if st.window != nil {
					st.window.Reset()
				}
				st.fresh = false
				st.lastAt = 0
				st.interval = 0
			}
		}
	}
}

// run is the receiver process: it screens incoming metric batches and
// stores them on the matching policy bindings.
func (e *Engine) run(p *sim.Proc) {
	// Drain every same-instant metric shipment in one wake so a burst of
	// sensor-server sends costs one kernel→proc handoff.
	var buf []msg.Envelope
	for {
		batch, err := e.ep.RecvBatch(p, buf[:0])
		if err != nil {
			return
		}
		buf = batch
		for i := range batch {
			env := &batch[i]
			if !e.filter.Admit(*env) {
				continue
			}
			msgs, err := msg.Payload[[]sensor.MetricMsg](env)
			if err != nil {
				continue
			}
			ingested := 0
			for _, w := range msgs {
				m, err := sensor.FromMsg(w, env.SentAt)
				if err != nil {
					continue
				}
				e.Ingest(m)
				ingested++
			}
			// One count per envelope, not per metric: each Inc takes the
			// recorder's lock. An envelope that ingests nothing records
			// nothing, as no per-metric Inc did.
			if ingested > 0 {
				e.tr.Inc("decision.metrics_ingested", int64(ingested))
			}
		}
	}
}

// evalLoop is the evaluator process: it fires each binding's evaluation at
// its configured frequency and ships the round's suggestions together. A
// restored engine resumes the checkpointed tick grid instead of starting a
// fresh one at the restore instant.
func (e *Engine) evalLoop(p *sim.Proc) {
	tick := e.tickInterval()
	for {
		next := e.s.Now() + tick
		if e.nextEval > e.s.Now() {
			next = e.nextEval
		}
		e.nextEval = next
		if err := p.Sleep(next - e.s.Now()); err != nil {
			return
		}
		e.nextEval = 0
		round := e.EvaluateDue()
		if len(round) > 0 {
			e.tr.Inc("decision.suggestions", int64(len(round)))
			e.ep.Send(e.out, round)
		}
	}
}

// tickInterval picks the evaluator's polling period: the smallest policy
// frequency, capped at one second.
func (e *Engine) tickInterval() time.Duration {
	tick := time.Second
	for _, b := range e.bindings {
		if b.def.Frequency < tick {
			tick = b.def.Frequency
		}
	}
	if tick <= 0 {
		tick = time.Second
	}
	return tick
}

// Ingest stores one metric on every matching binding (no evaluation —
// updates between evaluations are stored for history or replace the latest
// value).
func (e *Engine) Ingest(m sensor.Metric) {
	for _, b := range e.bindings {
		if b.matches(m) {
			b.ingest(m)
		}
	}
}

// EvaluateDue runs the evaluation condition of every binding whose
// frequency period has elapsed and returns the suggestions of this round.
// A binding only evaluates while at least one of its series is live —
// fresh, or within the staleness horizon of its arrival cadence: re-firing
// every frequency period on the same frozen window long after the assessed
// task stopped producing data would suggest actions about a state that no
// longer updates.
func (e *Engine) EvaluateDue() []Suggestion {
	now := e.s.Now()
	var out []Suggestion
	for _, b := range e.bindings {
		if b.everEval && now-b.lastEval < b.def.Frequency {
			continue
		}
		if !b.anyLive(now) {
			continue // every series went stale: nothing left to decide on
		}
		b.lastEval = now
		b.everEval = true
		e.tr.Inc("decision.evaluations", 1)
		sg, ok := e.evaluate(b, now)
		// The round consumed the binding's pending data; liveness now rests
		// on the arrival cadence until the next value lands.
		for _, k := range b.order {
			b.series[k].fresh = false
		}
		if ok {
			out = append(out, sg)
		}
	}
	return out
}

// evaluate applies the binding's condition over its series (in arrival
// order); the first satisfied live series produces the suggestion.
func (e *Engine) evaluate(b *binding, now sim.Time) (Suggestion, bool) {
	for _, k := range b.order {
		st := b.series[k]
		if !st.live(now) {
			continue // stale series: its producer stopped updating it
		}
		v, ok := st.value(b.def)
		if !ok {
			continue
		}
		if !b.def.Eval.Compare(v, b.def.Threshold) {
			continue
		}
		e.seq++
		id := fmt.Sprintf("%s/%s#%d", b.bind.Workflow, b.def.ID, e.seq)
		e.tr.Suggested(id, b.bind.Workflow, b.def.ID, b.def.Action.String(), k.Sensor, st.genAt, st.lastAt, now)
		return Suggestion{
			ID:         id,
			Workflow:   b.bind.Workflow,
			PolicyID:   b.def.ID,
			Action:     b.def.Action.String(),
			AssessTask: b.bind.AssessTask,
			ActOnTasks: append([]string(nil), b.bind.ActOnTasks...),
			// Copied: the compiled spec's map must not be aliased into the
			// suggestion, where downstream stages may mutate it.
			Params:      copyParams(b.bind.Params),
			MetricValue: v,
			Step:        st.step,
			GeneratedAt: int64(st.genAt),
			ObservedAt:  int64(st.lastAt),
			DecidedAt:   int64(now),
		}, true
	}
	return Suggestion{}, false
}

func copyParams(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
