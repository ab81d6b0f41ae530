package arbiter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// actionOf is r's typed action.
func actionOf(r *decision.Rule) spec.Action {
	a, _ := r.ParsedAction()
	return a
}

// spanOf returns a copy of suggestion seq's span on tr.
func spanOf(tr *trace.Recorder, seq int) (trace.Span, bool) {
	for _, sp := range tr.Spans() {
		if sp.Seq == seq {
			return sp, true
		}
	}
	return trace.Span{}, false
}

// fakeView serves snapshots from a mutable map.
type fakeView struct {
	tasks map[string]map[string]TaskState // workflow -> task -> state
	free  int
}

func (v *fakeView) Snapshot(wf string, into map[string]TaskState) int {
	clear(into)
	for k, st := range v.tasks[wf] {
		into[k] = st
	}
	return v.free
}

// fakeExec records executed plans and applies optional per-op latency.
type fakeExec struct {
	s     *sim.Sim
	plans []Plan
	opDur time.Duration
	// apply mutates the view like a real actuation would.
	apply func(Plan)
	// failAfter, when >= 0, fails the plan after applying that many ops
	// (mimicking a mid-plan actuation failure).
	failAfter int
}

func (e *fakeExec) Execute(p *sim.Proc, plan Plan) (ExecReport, error) {
	if e.opDur > 0 {
		if err := p.SleepUninterruptible(time.Duration(len(plan.Ops)) * e.opDur); err != nil {
			return ExecReport{Aborted: len(plan.Ops)}, err
		}
	}
	e.plans = append(e.plans, plan)
	if e.apply != nil {
		e.apply(plan)
	}
	if e.failAfter >= 0 && e.failAfter < len(plan.Ops) {
		rep := ExecReport{Applied: e.failAfter, Aborted: len(plan.Ops) - e.failAfter}
		for _, op := range plan.Ops[e.failAfter:] {
			if op.Kind == OpStart {
				rep.UnappliedStarts = append(rep.UnappliedStarts, op)
			}
		}
		return rep, fmt.Errorf("fake actuation failure at op %d", e.failAfter)
	}
	return ExecReport{Applied: len(plan.Ops)}, nil
}

type engineRig struct {
	s    *sim.Sim
	bus  *msg.Bus
	dec  *msg.Endpoint
	view *fakeView
	exec *fakeExec
	eng  *Engine
	tr   *trace.Recorder // the engine's flight recorder: its counters
	// rounds is the round log the engine appends to, the world's in an
	// orchestrator; a replacement engine is built over the same one.
	rounds *Rounds
	cfg    Config
	rules  map[string]*spec.WorkflowRules
}

func newEngineRig(t *testing.T, cfg Config) *engineRig {
	t.Helper()
	s := sim.New(1)
	bus := msg.NewBus(s)
	dec := bus.Endpoint("decision")
	view := &fakeView{
		tasks: map[string]map[string]TaskState{
			"W": {
				"A": {Running: true, Procs: 10},
				"B": {Running: false, Procs: 10},
			},
			"V": {
				"X": {Running: true, Procs: 4},
			},
		},
		free: 100,
	}
	exec := &fakeExec{s: s, failAfter: -1}
	rules := map[string]*spec.WorkflowRules{
		"W": {TaskPriorities: map[string]int{"A": 0, "B": 1}},
		"V": {TaskPriorities: map[string]int{"X": 0}},
	}
	tr, rounds := trace.New(obs.NewRegistry()), new(Rounds)
	eng := New(s, s.Spawn, bus, "arbiter", cfg, rules, view, exec, tr, rounds)
	eng.Start()
	return &engineRig{s: s, bus: bus, dec: dec, view: view, exec: exec, eng: eng, tr: tr, rounds: rounds, cfg: cfg, rules: rules}
}

func sendSuggestions(r *engineRig, at time.Duration, sgs ...decision.Suggestion) {
	r.s.At(at, func() {
		for i := range sgs {
			if sgs[i].DecidedAt == 0 {
				sgs[i].DecidedAt = int64(r.s.Now())
			}
		}
		r.dec.Send("arbiter", &decision.Round{Sugs: sgs})
	})
}

func TestEngineWarmupDiscards(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Minute, SettleDelay: time.Minute, GatherWindow: time.Second})
	sg := decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)}
	sendSuggestions(r, 10*time.Second, sg) // inside warm-up
	sendSuggestions(r, 2*time.Minute, sg)  // after warm-up
	if err := r.s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := r.tr.Counter("arbiter.discarded_batches"); got != 1 {
		t.Fatalf("discarded = %d, want 1", got)
	}
	if len(r.exec.plans) != 1 {
		t.Fatalf("executed plans = %d, want 1", len(r.exec.plans))
	}
	recs := *r.rounds
	if len(recs) != 1 || recs[0].Workflow != "W" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestEngineSettleDiscards(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: 2 * time.Minute, GatherWindow: time.Second})
	// Actuation mutates the view so repeated suggestions become no-ops
	// only after the settle window would have ended.
	r.exec.apply = func(Plan) {
		r.view.tasks["W"]["B"] = TaskState{Running: true, Procs: 10}
	}
	sg := decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)}
	sendSuggestions(r, 10*time.Second, sg)
	sendSuggestions(r, 30*time.Second, sg) // inside settle: discarded
	if err := r.s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 1 {
		t.Fatalf("plans = %d, want 1 (second suggestion settled away)", len(r.exec.plans))
	}
	if got := r.tr.Counter("arbiter.discarded_batches"); got != 1 {
		t.Fatalf("discarded = %d, want 1", got)
	}
}

func TestEngineGatherCombinesBatches(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: 5 * time.Second})
	sgB := decision.Suggestion{Rule: decision.NewRule("W", "P1", "START", "B", []string{"B"}, nil)}
	sgA := decision.Suggestion{Rule: decision.NewRule("W", "P2", "ADDCPU", "A", []string{"A"}, map[string]string{"adjust-by": "5"})}
	sendSuggestions(r, 10*time.Second, sgB)
	sendSuggestions(r, 12*time.Second, sgA) // lands inside the gather window
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 1 {
		t.Fatalf("plans = %d, want 1 combined plan", len(r.exec.plans))
	}
	plan := r.exec.plans[0]
	var startsB, resizesA bool
	for _, op := range plan.Ops {
		if op.Kind == OpStart && op.Task == "B" {
			startsB = true
		}
		if op.Kind == OpStart && op.Task == "A" && op.Procs == 15 {
			resizesA = true
		}
	}
	if !startsB || !resizesA {
		t.Fatalf("combined plan = %v", plan.Ops)
	}
}

// TestEngineGatherLeavesPayloadUntouched: the gather window combines the
// rounds it receives in an engine-owned buffer. The first round's
// suggestions have spare capacity with a sentinel past their length;
// appending the second round onto them would overwrite the sentinel in
// the sender's array.
func TestEngineGatherLeavesPayloadUntouched(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: 5 * time.Second})
	sgB := decision.Suggestion{Rule: decision.NewRule("W", "P1", "START", "B", []string{"B"}, nil), Seq: 1, DecidedAt: int64(10 * time.Second)}
	sgA := decision.Suggestion{Rule: decision.NewRule("W", "P2", "ADDCPU", "A", []string{"A"}, map[string]string{"adjust-by": "5"}), Seq: 2, DecidedAt: int64(12 * time.Second)}
	sentinel := decision.Suggestion{Rule: decision.NewRule("sentinel", "sentinel", "", "", nil, nil)}
	first := make([]decision.Suggestion, 2)
	first[0], first[1] = sgB, sentinel
	r.s.At(10*time.Second, func() { r.dec.Send("arbiter", &decision.Round{Sugs: first[:1]}) })
	r.s.At(12*time.Second, func() { r.dec.Send("arbiter", &decision.Round{Sugs: []decision.Suggestion{sgA}}) })
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := *r.rounds
	if len(r.exec.plans) != 1 || len(recs) != 1 || !slices.Equal(recs[0].SuggestionIDs, []string{"W/P1#1", "W/P2#2"}) {
		t.Fatalf("plans = %+v, records %+v, want one plan triggered by both batches", r.exec.plans, recs)
	}
	if first[1].Rule.Workflow() != "sentinel" || first[1].Rule.PolicyID() != "sentinel" {
		t.Fatalf("gather wrote into the first payload's spare capacity: %+v", first[1])
	}
}

func TestEnginePlansPerWorkflow(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: time.Second})
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)},
		decision.Suggestion{Rule: decision.NewRule("V", "Q", "STOP", "X", []string{"X"}, nil)},
	)
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 2 {
		t.Fatalf("plans = %d, want one per workflow", len(r.exec.plans))
	}
	var wfs []string
	for _, pl := range r.exec.plans {
		for _, op := range pl.Ops {
			if op.Workflow != pl.Ops[0].Workflow {
				t.Fatalf("a plan mixes workflows: %v", pl.Ops)
			}
		}
		wfs = append(wfs, pl.Ops[0].Workflow)
	}
	if !slices.Equal(wfs, []string{"W", "V"}) {
		t.Fatalf("workflows = %v, want [W V]", wfs)
	}
}

func TestEngineStaleSuggestionScreened(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Second, GatherWindow: time.Second})
	// A restarted at t=30s; a suggestion decided at t=10s about A is stale.
	r.view.tasks["W"]["A"] = TaskState{Running: true, Procs: 10, StartedAt: 30 * time.Second}
	stale := decision.Suggestion{Rule: decision.NewRule("W", "P", "RESTART", "A", []string{"A"}, nil), DecidedAt: int64(10 * time.Second)}
	sendSuggestions(r, 40*time.Second, stale)
	if err := r.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 0 {
		t.Fatalf("stale suggestion produced plans: %v", r.exec.plans)
	}
}

func TestEngineSeededWaitingStartsOnPlanSurplus(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: time.Second})
	r.eng.EnqueueWaiting(WaitingTask{Workflow: "W", Task: "B", Procs: 8})
	if got := r.eng.waiting["W"]; len(got) != 1 {
		t.Fatalf("waiting = %v", got)
	}
	// Stopping A frees 10 cores; B (8) starts from the plan's surplus.
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "STOP", "A", []string{"A"}, nil)})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 1 {
		t.Fatalf("plans = %d", len(r.exec.plans))
	}
	var startsB bool
	for _, op := range r.exec.plans[0].Ops {
		if op.Kind == OpStart && op.Task == "B" && op.Procs == 8 {
			startsB = true
		}
	}
	if !startsB {
		t.Fatalf("plan = %v, want waiting B started", r.exec.plans[0].Ops)
	}
	if got := r.eng.waiting["W"]; len(got) != 0 {
		t.Fatalf("waiting after start = %v", got)
	}
}

func TestEngineRecordsResponseDecomposition(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: time.Second, PlanCost: 200 * time.Millisecond})
	r.exec.opDur = 3 * time.Second
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := *r.rounds
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if got := rec.PlannedAt - rec.ReceivedAt; got != 200*time.Millisecond {
		t.Fatalf("plan time = %v, want 200ms", got)
	}
	if got := rec.ExecutedAt - rec.PlannedAt; got != 3*time.Second {
		t.Fatalf("actuation time = %v, want 3s (1 op)", got)
	}
	if rec.ResponseTime() != 3200*time.Millisecond {
		t.Fatalf("response = %v", rec.ResponseTime())
	}
}

func TestEngineDirectArbitrateAndStop(t *testing.T) {
	r := newEngineRig(t, DefaultConfig())
	var returned []Record
	r.s.Spawn("driver", func(p *sim.Proc) {
		// Direct synchronous round, bypassing guards (test/tooling entry).
		returned = r.eng.Arbitrate(p, []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)},
		})
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := *r.rounds
	if len(returned) != 1 || len(recs) != 1 || recs[0].Plan.Empty() {
		t.Fatalf("returned = %+v, records = %+v, want one executed round", returned, recs)
	}
	if recs[0].ResponseTime() <= 0 || returned[0].ExecutedAt != recs[0].ExecutedAt {
		t.Fatalf("response time must be positive and the returned round the recorded one: %+v vs %+v", returned[0], recs[0])
	}
	r.eng.Stop()
	r.s.RunUntilIdle()
}

func TestOpAndKindStrings(t *testing.T) {
	op := Op{Kind: OpStart, Task: "T", Procs: 8, Victim: false, Dependent: true}
	if s := op.String(); s != "start(T, 8 procs, dep)" {
		t.Fatalf("op string = %q", s)
	}
	v := Op{Kind: OpStop, Task: "V", Victim: true}
	if s := v.String(); s != "stop(V, victim)" {
		t.Fatalf("victim string = %q", s)
	}
	if OpStop.String() != "stop" || OpStart.String() != "start" {
		t.Fatal("kind strings")
	}
}

func TestDefaultConfigMatchesPaperGuards(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.WarmupDelay != 2*time.Minute || cfg.SettleDelay != 2*time.Minute {
		t.Fatalf("guards = %+v, want the paper's 2-minute windows", cfg)
	}
	if cfg.GatherWindow != 5*time.Second {
		t.Fatalf("gather = %v", cfg.GatherWindow)
	}
}

func TestEmptyPlanRoundRecordedAndWaitingResolved(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: time.Second})
	// A stale T_waiting entry: the task is already running on its own.
	// BuildPlan resolves it even when the plan comes out empty, so the
	// queue update must not be skipped on empty rounds.
	r.eng.EnqueueWaiting(WaitingTask{Workflow: "W", Task: "A", Procs: 10})
	// START for a task that is already running is a no-op: empty plan.
	r.view.tasks["W"]["B"] = TaskState{Running: true, Procs: 10}
	sg := decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil), Seq: 1}
	r.tr.Suggested(sg.Seq, "W", "P", "START", "PACE", 0, 0, sim.Time(10*time.Second))
	sendSuggestions(r, 10*time.Second, sg)
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 0 {
		t.Fatalf("plans executed = %d, want 0", len(r.exec.plans))
	}
	// The empty round is visible to accounting but not to the round log,
	// which lists executed rounds only.
	if len(*r.rounds) != 0 {
		t.Fatalf("records = %+v, want none (round was empty)", *r.rounds)
	}
	if got := r.tr.Counter("arbiter.empty_rounds"); got != 1 {
		t.Fatalf("empty rounds = %d, want 1", got)
	}
	// The round arbitrated the suggestion and planned nothing: its span was
	// received and dropped, never planned or executed.
	if sp, _ := spanOf(r.tr, sg.Seq); sp.Dropped != "empty-plan" || sp.ReceivedAt == 0 || sp.PlannedAt != 0 || sp.ExecutedAt != 0 {
		t.Fatalf("span = %+v, want received and then dropped as empty-plan", sp)
	}
	if w := r.eng.waiting["W"]; len(w) != 0 {
		t.Fatalf("waiting = %+v, want the stale entry resolved on the empty round", w)
	}
}

func TestEngineStampsTraceSpans(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: 30 * time.Second, SettleDelay: time.Minute, GatherWindow: time.Second})
	tr := r.tr
	// Spans are minted by Decision; mirror that here for two suggestions.
	tr.Suggested(1, "W", "P", "START", "PACE", 0, 0, sim.Time(10*time.Second))
	tr.Suggested(2, "W", "P", "START", "PACE", 0, 0, sim.Time(40*time.Second))

	rule := decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)
	warm := decision.Suggestion{Rule: rule, Seq: 1}
	live := decision.Suggestion{Rule: rule, Seq: 2}
	sendSuggestions(r, 10*time.Second, warm) // inside warm-up: dropped
	sendSuggestions(r, 40*time.Second, live) // arbitrated and executed
	if err := r.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dropped, ok := spanOf(tr, 1)
	if !ok || dropped.Dropped != "warmup" {
		t.Fatalf("warm-up span = %+v, want dropped with reason warmup", dropped)
	}
	done, ok := spanOf(tr, 2)
	if !ok || !done.Complete() {
		t.Fatalf("executed span = %+v, want complete", done)
	}
	if done.DecidedAt > done.ReceivedAt || done.ReceivedAt > done.PlannedAt || done.PlannedAt > done.ExecutedAt {
		t.Fatalf("executed span timestamps out of order: %+v", done)
	}
	if tr.Counter("arbiter.discarded_batches") != 1 || tr.Counter("arbiter.rounds") != 1 {
		t.Fatalf("counters = discarded %d rounds %d, want 1 and 1",
			tr.Counter("arbiter.discarded_batches"), tr.Counter("arbiter.rounds"))
	}
	recs := *r.rounds
	if len(recs) != 1 || len(recs[0].SuggestionIDs) != 1 || recs[0].SuggestionIDs[0] != "W/P#2" {
		t.Fatalf("records = %+v, want one round correlated to W/P#2", recs)
	}
}

// A mid-plan actuation failure after the stop applied must re-enqueue the
// unapplied START as a recovery entry, arm the failure cooldown, and
// restart the task from free capacity on the next round — not strand it
// (the gracefully stopped task exited 0, so no failure policy fires).
func TestEngineRequeuesUnappliedStartsAndRecoversNextRound(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: 2 * time.Minute,
		FailureCooldown: 30 * time.Second, GatherWindow: time.Second})
	tr := r.tr
	r.exec.failAfter = 1 // apply the stop, fail the start
	r.exec.apply = func(p Plan) {
		for i, op := range p.Ops {
			if r.exec.failAfter >= 0 && i >= r.exec.failAfter {
				break // unapplied ops must not mutate the view
			}
			st := r.view.tasks[op.Workflow][op.Task]
			st.Running = op.Kind == OpStart
			if op.Kind == OpStart {
				st.Procs = op.Procs
			}
			r.view.tasks[op.Workflow][op.Task] = st
		}
	}
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "RESTART", "A", []string{"A"}, nil)})
	// Inside the failure cooldown: discarded without planning.
	sendSuggestions(r, 25*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "STOP", "B", []string{"B"}, nil)})
	// Past the cooldown: actuation is healthy again, and a round that
	// contributes no operations of its own picks up the recovery entry.
	r.s.At(59*time.Second, func() { r.exec.failAfter = -1 })
	sendSuggestions(r, time.Minute,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "STOP", "B", []string{"B"}, nil)})
	if err := r.s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	recs := *r.rounds
	if len(recs) != 2 {
		t.Fatalf("records = %+v, want failed round + recovery round", recs)
	}
	if recs[0].Err == "" || recs[0].AppliedOps != 1 || recs[0].AbortedOps != 1 {
		t.Fatalf("failed round = %+v, want 1 applied (stop), 1 aborted (start)", recs[0])
	}
	if recs[1].Err != "" || recs[1].AppliedOps != 1 || recs[1].AbortedOps != 0 {
		t.Fatalf("recovery round = %+v", recs[1])
	}
	ops := r.exec.plans[1].Ops
	if len(ops) != 1 || ops[0].Kind != OpStart || ops[0].Task != "A" || ops[0].Procs != 10 {
		t.Fatalf("recovery plan = %v, want A restarted at its old size", ops)
	}
	if st := r.view.tasks["W"]["A"]; !st.Running {
		t.Fatal("A still stranded after the recovery round")
	}
	if w := r.eng.waiting["W"]; len(w) != 0 {
		t.Fatalf("waiting = %+v, want recovery entry consumed", w)
	}
	if got := tr.Counter("arbiter.discarded_batches"); got != 1 {
		t.Fatalf("discarded = %d, want 1 (the in-cooldown batch)", got)
	}
	if got := tr.Counter("arbiter.requeued_tasks"); got != 1 {
		t.Fatalf("arbiter.requeued_tasks = %d, want 1", got)
	}
	if got := tr.Counter("arbiter.failed_rounds"); got != 1 {
		t.Fatalf("arbiter.failed_rounds = %d, want 1", got)
	}
}

// Requeueing must not duplicate an entry for a task already queued.
func TestEngineRequeueDedupesWaiting(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute,
		FailureCooldown: 10 * time.Second, GatherWindow: time.Second})
	r.exec.failAfter = 0 // every op fails
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)})
	sendSuggestions(r, 30*time.Second,
		decision.Suggestion{Rule: decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)})
	if err := r.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if w := r.eng.waiting["W"]; len(w) != 1 || w[0].Task != "B" || !w[0].Recovery {
		t.Fatalf("waiting = %+v, want exactly one recovery entry for B", w)
	}
}

// refOpString is an op's label as String formatted it through fmt before
// it became AppendLabel's string: the reference AppendLabel must equal.
func refOpString(o Op) string {
	s := fmt.Sprintf("%s(%s", o.Kind, o.Task)
	if o.Kind == OpStart {
		s += fmt.Sprintf(", %d procs", o.Procs)
	}
	if o.Victim {
		s += ", victim"
	}
	if o.Dependent {
		s += ", dep"
	}
	return s + ")"
}

// TestProperty_OpLabel_EqualsString: over seeded ops of both kinds, with
// and without the victim and dep flags, with odd task names and any
// procs, AppendLabel appends exactly the fmt-built reference label, and
// String returns it.
func TestProperty_OpLabel_EqualsString(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tasks := []string{"", "T", "Analysis", "a(b), c", "ü"}
	seen := map[[3]bool]bool{}
	var buf []byte
	for i := 0; i < 5000; i++ {
		op := Op{
			Kind: OpKind(rng.Intn(2)), Task: tasks[rng.Intn(len(tasks))],
			Procs: rng.Intn(2000) - 1000, Victim: rng.Intn(2) == 0, Dependent: rng.Intn(2) == 0,
		}
		seen[[3]bool{op.Kind == OpStart, op.Victim, op.Dependent}] = true
		prefix := rng.Intn(8) // what the buffer already holds stays
		buf = append(buf[:0], "earlier!"[:prefix]...)
		buf = op.AppendLabel(buf)
		want := refOpString(op)
		if got := string(buf); got != "earlier!"[:prefix]+want {
			t.Fatalf("%+v: AppendLabel gives %q, the reference %q", op, got, want)
		}
		if got := op.String(); got != want {
			t.Fatalf("%+v: String gives %q, the reference %q", op, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("generator covered %d of 8 kind and flag combinations", len(seen))
	}
}
