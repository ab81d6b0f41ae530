// Package decision implements DYFLOW's Decision stage (paper §2.2, §3): it
// screens incoming sensor metrics, maps them to the user's policies,
// maintains per-policy history windows with pre-analysis, gates evaluation
// by each policy's frequency, and emits suggested high-level actions to the
// Arbitration stage as a single JSON message per evaluation round.
package decision

import (
	"time"

	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
	"dyflow/internal/trace"
)

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
	def  *spec.PolicyDef
	bind spec.PolicyBinding
	// rule is the binding's descriptor, named by every suggestion it
	// makes.
	rule *Rule
	// order holds the keys of the series feeding the binding in arrival
	// order, the order it evaluates them in, and series their states,
	// index for index.
	order    []sensor.Key
	series   []*seriesState
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
	for _, st := range b.series {
		if st.live(now) {
			return true
		}
	}
	return false
}

// matches reports whether series k feeds this binding.
func (b *binding) matches(k sensor.Key) bool {
	if k.Workflow != b.bind.Workflow {
		return false
	}
	for _, ref := range b.def.Sensors {
		if ref.SensorID != k.Sensor || ref.Granularity != k.Granularity {
			continue
		}
		switch k.Granularity {
		case spec.GranTask, spec.GranNodeTask:
			if k.Task == b.bind.AssessTask {
				return true
			}
		case spec.GranWorkflow, spec.GranNodeWorkflow:
			return true
		}
	}
	return false
}

// state returns the binding's state for series k, creating it — last in
// evaluation order — on first use.
func (b *binding) state(k sensor.Key) *seriesState {
	for i := range b.order {
		if b.order[i] == k {
			return b.series[i]
		}
	}
	st := &seriesState{}
	if b.def.History != nil {
		st.window = stats.NewWindow(b.def.History.Window)
	}
	b.order = append(b.order, k)
	b.series = append(b.series, st)
	return st
}

// ingest stores m in st, the binding's state for m's series, and returns
// it. A nil st — the series' route has not yet stored a metric here — is
// looked up by key, or created, first. A dropped metric leaves st as it
// was.
func (b *binding) ingest(st *seriesState, m sensor.Metric) *seriesState {
	if b.resetAt > 0 && m.GeneratedAt <= b.resetAt {
		// In-flight data from before the assessed task's restart: acting
		// on it would re-trigger the action that caused the restart.
		return st
	}
	if st == nil {
		st = b.state(m.Key)
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
	return st
}

// route is where one series' metrics go: the bindings the series feeds,
// each with the state it keeps for the series once it stored a metric of
// it. series is the descriptor the route was built for.
type route struct {
	series *sensor.Series
	feeds  []feed
}

// feed is one binding a route's series feeds, and its state for the
// series (nil until the binding stores a metric of it).
type feed struct {
	b  *binding
	st *seriesState
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
// and ships the round's suggestions as a single message to Arbitration: a
// recycled *Round.
type Engine struct {
	s        *sim.Sim
	ep       *msg.Endpoint
	out      string
	bindings []*binding
	// routes is indexed by Series.ID (see Ingest).
	routes   []route
	recvProc *sim.Proc
	evalProc *sim.Proc
	tr       *trace.Recorder
	spawn    func(name string, fn func(*sim.Proc)) *sim.Proc
	// The stage counters on tr, resolved once.
	nIngested, nSuggestions, nEvaluations *trace.StageCounter

	// rounds are the released rounds the evaluator reuses (round.go).
	rounds []*Round

	seq int // the last suggestion's Seq
	// nextEval is the evaluator's next scheduled tick; checkpointed so a
	// restored engine keeps the same evaluation grid (a shifted grid changes
	// which gather window suggestions land in).
	nextEval sim.Time
}

// New creates the Decision engine reading metrics from its endpoint and
// sending suggestion rounds to the out endpoint (the Arbitration stage);
// spawn starts its processes (the orchestrator's supervisor hands in a
// panic-guarded spawner).
// Every suggestion it emits opens a lifecycle span on tr, which also owns
// the stage's counters: decision.evaluations, decision.suggestions and
// decision.metrics_ingested.
func New(s *sim.Sim, spawn func(name string, fn func(*sim.Proc)) *sim.Proc, bus *msg.Bus, name, out string, cfg *spec.Config, tr *trace.Recorder) *Engine {
	e := &Engine{
		s:     s,
		spawn: spawn,
		ep:    bus.Endpoint(name),
		out:   out,
		tr:    tr,

		nIngested:    tr.StageCounter("decision.metrics_ingested"),
		nSuggestions: tr.StageCounter("decision.suggestions"),
		nEvaluations: tr.StageCounter("decision.evaluations"),
	}
	for _, pb := range cfg.Bindings {
		def := cfg.Policies[pb.PolicyID]
		if def == nil {
			continue
		}
		rule := NewRule(pb.Workflow, def.ID, def.Action.String(), pb.AssessTask, pb.ActOnTasks, pb.Params)
		e.bindings = append(e.bindings, &binding{def: def, bind: pb, rule: rule})
	}
	return e
}

// Start spawns the engine processes.
func (e *Engine) Start() {
	e.recvProc = e.spawn("decision-recv", e.run)
	e.evalProc = e.spawn("decision-eval", e.evalLoop)
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
		for _, st := range b.series {
			if st.window != nil {
				st.window.Reset()
			}
			st.fresh = false
			st.lastAt = 0
			st.interval = 0
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
			l, err := msg.Payload[*sensor.MetricList](env)
			if err != nil {
				continue
			}
			e.ingestList(l, env.SentAt)
			l.Release()
		}
	}
}

// ingestList ingests every message of a list, observed at sentAt.
func (e *Engine) ingestList(l *sensor.MetricList, sentAt sim.Time) {
	for _, w := range l.Msgs {
		e.Ingest(sensor.FromMsg(w, sentAt))
	}
	// One count per envelope, not per metric: each Add is an atomic add
	// on a counter the recorder shares. An envelope that ingests nothing
	// records nothing, as no per-metric count did.
	if len(l.Msgs) > 0 {
		e.nIngested.Add(int64(len(l.Msgs)))
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
		e.tick()
	}
}

// tick evaluates the due bindings into a round off the engine's free list
// and sends it to Arbitration, or releases it when nothing fired or it
// cannot be sent.
func (e *Engine) tick() {
	r := TakeRound(&e.rounds)
	r.Sugs = e.EvaluateDue(r.Sugs)
	if len(r.Sugs) == 0 {
		r.Release()
		return
	}
	e.nSuggestions.Add(int64(len(r.Sugs)))
	if e.ep.Send(e.out, r) != nil {
		r.Release()
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

// Ingest stores one metric on every binding its series feeds (no
// evaluation — updates between evaluations are stored for history or
// replace the latest value). The metric names its series by descriptor,
// m.Series, which must be set: the route at the descriptor's ID serves it
// when it was built for that descriptor, and is rebuilt from the key
// otherwise — on first sight, for a metric restored from a checkpoint (ID
// 0), and after a restored Monitor server renumbered its series.
func (e *Engine) Ingest(m sensor.Metric) {
	r := e.route(m.Series)
	for i := range r.feeds {
		f := &r.feeds[i]
		f.st = f.b.ingest(f.st, m)
	}
}

// route returns the route built for descriptor s, building it in s's slot
// if that slot holds another's.
func (e *Engine) route(s *sensor.Series) *route {
	for int(s.ID) >= len(e.routes) {
		e.routes = append(e.routes, route{})
	}
	r := &e.routes[s.ID]
	if r.series != s {
		r.series, r.feeds = s, r.feeds[:0]
		for _, b := range e.bindings {
			if b.matches(s.Key) {
				r.feeds = append(r.feeds, feed{b: b})
			}
		}
	}
	return r
}

// EvaluateDue runs the evaluation condition of every binding whose
// frequency period has elapsed and appends the suggestions of this round
// to out, returning the extended slice.
// A binding only evaluates while at least one of its series is live —
// fresh, or within the staleness horizon of its arrival cadence: re-firing
// every frequency period on the same frozen window long after the assessed
// task stopped producing data would suggest actions about a state that no
// longer updates.
func (e *Engine) EvaluateDue(out []Suggestion) []Suggestion {
	now := e.s.Now()
	for _, b := range e.bindings {
		if b.everEval && now-b.lastEval < b.def.Frequency {
			continue
		}
		if !b.anyLive(now) {
			continue // every series went stale: nothing left to decide on
		}
		b.lastEval = now
		b.everEval = true
		e.nEvaluations.Add(1)
		sg, ok := e.evaluate(b, now)
		// The round consumed the binding's pending data; liveness now rests
		// on the arrival cadence until the next value lands.
		for _, st := range b.series {
			st.fresh = false
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
	for i, st := range b.series {
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
		r := b.rule
		e.tr.Suggested(e.seq, r.workflow, r.policyID, r.action, b.order[i].Sensor, st.genAt, st.lastAt, now)
		return Suggestion{
			Rule:        r,
			Seq:         e.seq,
			MetricValue: v,
			Step:        st.step,
			GeneratedAt: int64(st.genAt),
			ObservedAt:  int64(st.lastAt),
			DecidedAt:   int64(now),
		}, true
	}
	return Suggestion{}, false
}
