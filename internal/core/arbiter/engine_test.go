package arbiter

import (
	"fmt"
	"testing"
	"time"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// fakeView serves snapshots from a mutable map.
type fakeView struct {
	tasks map[string]map[string]TaskState // workflow -> task -> state
	free  int
}

func (v *fakeView) Snapshot(wf string) (map[string]TaskState, int) {
	out := make(map[string]TaskState, len(v.tasks[wf]))
	for k, st := range v.tasks[wf] {
		out[k] = st
	}
	return out, v.free
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
	s     *sim.Sim
	bus   *msg.Bus
	dec   *msg.Endpoint
	view  *fakeView
	exec  *fakeExec
	eng   *Engine
	tr    *trace.Recorder // the engine's flight recorder: its counters
	cfg   Config
	rules map[string]*spec.WorkflowRules
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
		"W": {Workflow: "W", TaskPriorities: map[string]int{"A": 0, "B": 1}},
		"V": {Workflow: "V", TaskPriorities: map[string]int{"X": 0}},
	}
	eng := New(s, bus, "arbiter", cfg, rules, view, exec)
	tr := trace.New()
	eng.SetTracer(tr)
	eng.Start()
	return &engineRig{s: s, bus: bus, dec: dec, view: view, exec: exec, eng: eng, tr: tr, cfg: cfg, rules: rules}
}

func sendSuggestions(r *engineRig, at time.Duration, sgs ...decision.Suggestion) {
	r.s.At(at, func() {
		for i := range sgs {
			if sgs[i].DecidedAt == 0 {
				sgs[i].DecidedAt = int64(r.s.Now())
			}
		}
		r.dec.Send("arbiter", sgs)
	})
}

func TestEngineWarmupDiscards(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Minute, SettleDelay: time.Minute, GatherWindow: time.Second})
	sg := decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}}
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
	recs := r.eng.Records()
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
	sg := decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}}
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
	sgB := decision.Suggestion{Workflow: "W", PolicyID: "P1", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}}
	sgA := decision.Suggestion{Workflow: "W", PolicyID: "P2", Action: "ADDCPU", AssessTask: "A", ActOnTasks: []string{"A"},
		Params: map[string]string{"adjust-by": "5"}}
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

func TestEnginePlansPerWorkflow(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: time.Second})
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}},
		decision.Suggestion{Workflow: "V", PolicyID: "Q", Action: "STOP", AssessTask: "X", ActOnTasks: []string{"X"}},
	)
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 2 {
		t.Fatalf("plans = %d, want one per workflow", len(r.exec.plans))
	}
	if r.exec.plans[0].Workflow != "W" || r.exec.plans[1].Workflow != "V" {
		t.Fatalf("workflows = %s, %s", r.exec.plans[0].Workflow, r.exec.plans[1].Workflow)
	}
}

func TestEngineStaleSuggestionScreened(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Second, GatherWindow: time.Second})
	// A restarted at t=30s; a suggestion decided at t=10s about A is stale.
	r.view.tasks["W"]["A"] = TaskState{Running: true, Procs: 10, StartedAt: 30 * time.Second}
	stale := decision.Suggestion{
		Workflow: "W", PolicyID: "P", Action: "RESTART",
		AssessTask: "A", ActOnTasks: []string{"A"},
		DecidedAt: int64(10 * time.Second),
	}
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
	if got := r.eng.Waiting("W"); len(got) != 1 {
		t.Fatalf("waiting = %v", got)
	}
	// Stopping A frees 10 cores; B (8) starts from the plan's surplus.
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "STOP", AssessTask: "A", ActOnTasks: []string{"A"}})
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
	if got := r.eng.Waiting("W"); len(got) != 0 {
		t.Fatalf("waiting after start = %v", got)
	}
}

func TestEngineRecordsResponseDecomposition(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: time.Second, SettleDelay: time.Minute, GatherWindow: time.Second, PlanCost: 200 * time.Millisecond})
	r.exec.opDur = 3 * time.Second
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := r.eng.Records()
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
			{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}},
		})
	})
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	recs := r.eng.Records()
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
	sg := decision.Suggestion{ID: "W/P#1", Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}}
	r.tr.Suggested(sg.ID, "W", "P", "START", "PACE", 0, 0, sim.Time(10*time.Second))
	sendSuggestions(r, 10*time.Second, sg)
	if err := r.s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(r.exec.plans) != 0 {
		t.Fatalf("plans executed = %d, want 0", len(r.exec.plans))
	}
	// The empty round is visible to accounting but not to Records(),
	// which lists executed rounds only.
	if len(r.eng.Records()) != 0 {
		t.Fatalf("records = %+v, want none (round was empty)", r.eng.Records())
	}
	if got := r.tr.Counter("arbiter.empty_rounds"); got != 1 {
		t.Fatalf("empty rounds = %d, want 1", got)
	}
	// The round arbitrated the suggestion and planned nothing: its span was
	// received and dropped, never planned or executed.
	if sp, _ := r.tr.Span(sg.ID); sp.Dropped != "empty-plan" || sp.ReceivedAt == 0 || sp.PlannedAt != 0 || sp.ExecutedAt != 0 {
		t.Fatalf("span = %+v, want received and then dropped as empty-plan", sp)
	}
	if w := r.eng.Waiting("W"); len(w) != 0 {
		t.Fatalf("waiting = %+v, want the stale entry resolved on the empty round", w)
	}
}

func TestEngineStampsTraceSpans(t *testing.T) {
	r := newEngineRig(t, Config{WarmupDelay: 30 * time.Second, SettleDelay: time.Minute, GatherWindow: time.Second})
	tr := r.tr
	// Spans are minted by Decision; mirror that here for two suggestions.
	tr.Suggested("W/P#1", "W", "P", "START", "PACE", 0, 0, sim.Time(10*time.Second))
	tr.Suggested("W/P#2", "W", "P", "START", "PACE", 0, 0, sim.Time(40*time.Second))

	warm := decision.Suggestion{ID: "W/P#1", Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}}
	live := decision.Suggestion{ID: "W/P#2", Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}}
	sendSuggestions(r, 10*time.Second, warm) // inside warm-up: dropped
	sendSuggestions(r, 40*time.Second, live) // arbitrated and executed
	if err := r.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dropped, ok := tr.Span("W/P#1")
	if !ok || dropped.Dropped != "warmup" {
		t.Fatalf("warm-up span = %+v, want dropped with reason warmup", dropped)
	}
	done, ok := tr.Span("W/P#2")
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
	recs := r.eng.Records()
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
			st := r.view.tasks[p.Workflow][op.Task]
			st.Running = op.Kind == OpStart
			if op.Kind == OpStart {
				st.Procs = op.Procs
			}
			r.view.tasks[p.Workflow][op.Task] = st
		}
	}
	sendSuggestions(r, 10*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "RESTART", AssessTask: "A", ActOnTasks: []string{"A"}})
	// Inside the failure cooldown: discarded without planning.
	sendSuggestions(r, 25*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "STOP", AssessTask: "B", ActOnTasks: []string{"B"}})
	// Past the cooldown: actuation is healthy again, and a round that
	// contributes no operations of its own picks up the recovery entry.
	r.s.At(59*time.Second, func() { r.exec.failAfter = -1 })
	sendSuggestions(r, time.Minute,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "STOP", AssessTask: "B", ActOnTasks: []string{"B"}})
	if err := r.s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	recs := r.eng.Records()
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
	if w := r.eng.Waiting("W"); len(w) != 0 {
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
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}})
	sendSuggestions(r, 30*time.Second,
		decision.Suggestion{Workflow: "W", PolicyID: "P", Action: "START", AssessTask: "B", ActOnTasks: []string{"B"}})
	if err := r.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if w := r.eng.Waiting("W"); len(w) != 1 || w[0].Task != "B" || !w[0].Recovery {
		t.Fatalf("waiting = %+v, want exactly one recovery entry for B", w)
	}
}
