package arbiter

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// parentArbitrate is Engine.Arbitrate as it was before a round reused its
// buffers: the batch grouped per workflow through a map of appended
// copies, a fresh task map per snapshot, and a Record that takes the
// round's slices as they are. It is the reference TestProperty_ArbiterRound
// checks the engine against. It finds spans by the suggestion IDs it
// formats, as the parent did, through the number each ends in.
func parentArbitrate(e *Engine, p *sim.Proc, batch []decision.Suggestion) []Record {
	received := e.s.Now()
	var out []Record

	byWF := map[string][]decision.Suggestion{}
	var order []string
	for _, sg := range batch {
		wf := sg.Rule.Workflow()
		if _, seen := byWF[wf]; !seen {
			order = append(order, wf)
		}
		byWF[wf] = append(byWF[wf], sg)
	}

	for _, wf := range order {
		sgs := byWF[wf]
		tasks := map[string]TaskState{}
		free := e.view.Snapshot(wf, tasks)
		fresh := sgs[:0]
		for _, sg := range sgs {
			if st, ok := tasks[sg.Rule.AssessTask()]; ok && st.StartedAt > 0 && sim.Time(sg.DecidedAt) < st.StartedAt {
				e.tr.Drop(trace.ParseSeq(sg.ID()), "stale", received)
				e.nStale.Add(1)
				continue
			}
			fresh = append(fresh, sg)
		}
		sgs = fresh
		if len(sgs) == 0 {
			continue
		}
		ids := make([]string, 0, len(sgs))
		for _, sg := range sgs {
			if sg.ID() != "" {
				ids = append(ids, sg.ID())
			}
			e.tr.Received(trace.ParseSeq(sg.ID()), received)
		}
		in := PlanInput{
			Workflow:      wf,
			Suggestions:   sgs,
			Tasks:         tasks,
			FreeCores:     free,
			Rules:         e.rules[wf],
			Waiting:       e.waiting[wf],
			NoVictims:     e.cfg.NoVictims,
			ImmediateKill: e.cfg.ImmediateKill,
		}
		plan, stillWaiting := BuildPlan(in)
		e.waiting[wf] = stillWaiting

		rec := Record{
			Workflow:      wf,
			ReceivedAt:    received,
			SuggestionIDs: ids,
		}
		if plan.Empty() {
			rec.PlannedAt = e.s.Now()
			e.nEmpty.Add(1)
			for _, id := range ids {
				e.tr.Drop(trace.ParseSeq(id), "empty-plan", rec.PlannedAt)
			}
			continue
		}
		if e.cfg.PlanCost > 0 {
			if err := p.SleepUninterruptible(e.cfg.PlanCost); err != nil {
				return out
			}
		}
		rec.PlannedAt = e.s.Now()
		for _, id := range ids {
			e.tr.Planned(trace.ParseSeq(id), rec.PlannedAt)
		}

		rep, err := e.exec.Execute(p, plan)
		if errors.Is(err, sim.ErrStopped) {
			return out
		}
		rec.ExecutedAt = e.s.Now()
		rec.Plan = plan
		rec.AppliedOps = rep.Applied
		rec.AbortedOps = rep.Aborted
		for _, id := range ids {
			e.tr.Executed(trace.ParseSeq(id), rec.ExecutedAt)
		}
		e.nRounds.Add(1)
		if err != nil {
			rec.Err = err.Error()
			e.nFailed.Add(1)
			e.requeue(wf, tasks, rep.UnappliedStarts)
			if e.cfg.FailureCooldown > 0 {
				e.settleUntil = e.s.Now() + e.cfg.FailureCooldown
			}
		} else if e.cfg.SettleDelay > 0 {
			e.settleUntil = e.s.Now() + e.cfg.SettleDelay
		}
		*e.rounds = append(*e.rounds, rec)
		out = append(out, rec)
	}
	return out
}

// roundWorkflows are the generated batches' workflows; "Z" is composed
// nowhere, so its snapshot is empty and it has no rules.
var roundWorkflows = map[string][]string{
	"W": {"A", "B", "C", "D"},
	"V": {"X", "Y"},
	"U": {"P", "Q", "R"},
	"Z": {"N"},
}

// roundScenario is one generated run: the initial task states, the
// T_waiting seeds, the per-plan actuation outcomes and the batches with
// the instants they arrive at.
type roundScenario struct {
	tasks   map[string]map[string]TaskState
	free    int
	waiting []WaitingTask
	fails   []int // failAfter of the k-th executed plan (mod len), -1 = none
	opDur   time.Duration
	at      []time.Duration
	batches [][]decision.Suggestion
}

func genRoundScenario(rng *rand.Rand) roundScenario {
	sc := roundScenario{tasks: map[string]map[string]TaskState{}, free: rng.Intn(80)}
	for _, wf := range []string{"W", "V", "U"} {
		sc.tasks[wf] = map[string]TaskState{}
		for _, name := range roundWorkflows[wf] {
			st := TaskState{Procs: 1 + rng.Intn(20), CoresPerProc: rng.Intn(2)}
			if rng.Intn(3) > 0 {
				st.Running = true
				st.StartedAt = sim.Time(rng.Intn(30)) * sim.Time(time.Second)
			}
			sc.tasks[wf][name] = st
			if !st.Running && rng.Intn(3) == 0 {
				sc.waiting = append(sc.waiting, WaitingTask{Workflow: wf, Task: name, Procs: 1 + rng.Intn(10), Recovery: rng.Intn(2) == 0})
			}
		}
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		sc.fails = append(sc.fails, rng.Intn(4)-1)
	}
	sc.opDur = time.Duration(rng.Intn(3)) * time.Second
	wfs := []string{"W", "V", "U", "Z"}
	actions := []string{"ADDCPU", "RMCPU", "STOP", "START", "RESTART"}
	at := time.Minute
	seq := 0
	for r, rounds := 0, 3+rng.Intn(10); r < rounds; r++ {
		at += time.Duration(10+rng.Intn(120)) * time.Second
		var batch []decision.Suggestion
		for i, n := 0, 1+rng.Intn(7); i < n; i++ {
			wf := wfs[rng.Intn(len(wfs))]
			names := roundWorkflows[wf]
			sg := decision.Suggestion{
				Rule: decision.NewRule(wf, fmt.Sprintf("P%d", rng.Intn(3)), actions[rng.Intn(len(actions))],
					names[rng.Intn(len(names))], []string{names[rng.Intn(len(names))]},
					map[string]string{"adjust-by": fmt.Sprint(1 + rng.Intn(12))}),
				GeneratedAt: int64(at - time.Duration(rng.Intn(60))*time.Second),
				// Up to 3 minutes before arrival: a task (re)started since
				// makes the suggestion stale.
				DecidedAt: int64(at - time.Duration(rng.Intn(180))*time.Second),
			}
			if rng.Intn(3) > 0 {
				seq++
				sg.Seq = seq
			}
			batch = append(batch, sg)
		}
		sc.at = append(sc.at, at)
		sc.batches = append(sc.batches, batch)
	}
	return sc
}

// roundExec applies plans to its view the way actuation would, failing
// the k-th executed plan after fails[k mod len] operations.
type roundExec struct {
	s     *sim.Sim
	view  *fakeView
	fails []int
	opDur time.Duration
	n     int
}

func (x *roundExec) Execute(p *sim.Proc, plan Plan) (ExecReport, error) {
	failAfter := x.fails[x.n%len(x.fails)]
	x.n++
	var rep ExecReport
	for i, op := range plan.Ops {
		if failAfter >= 0 && i >= failAfter {
			rep.Aborted = len(plan.Ops) - i
			for _, rest := range plan.Ops[i:] {
				if rest.Kind == OpStart {
					rep.UnappliedStarts = append(rep.UnappliedStarts, rest)
				}
			}
			return rep, fmt.Errorf("actuation failed at op %d", i)
		}
		if x.opDur > 0 {
			if err := p.SleepUninterruptible(x.opDur); err != nil {
				return rep, err
			}
		}
		tasks := x.view.tasks[op.Workflow]
		st := tasks[op.Task]
		if op.Kind == OpStop {
			if st.Running {
				x.view.free += st.Procs * st.cpp()
			}
			st.Running = false
		} else {
			st.Running = true
			st.Procs = op.Procs
			st.StartedAt = x.s.Now()
			x.view.free -= op.Procs * st.cpp()
		}
		tasks[op.Task] = st
		rep.Applied++
	}
	return rep, nil
}

// roundOutcome is everything a run of rounds leaves behind that the
// property compares.
type roundOutcome struct {
	Returned [][]Record
	Records  []Record
	Waiting  map[string][]WaitingTask
	Spans    []trace.Span
	Counters map[string]int64
	Batches  [][]decision.Suggestion // the batches as the engine left them
}

// runRounds plays sc through a fresh engine, one round per batch via
// arbitrate, and returns what the rounds left behind.
func runRounds(t *testing.T, sc roundScenario, arbitrate func(*Engine, *sim.Proc, []decision.Suggestion) []Record) roundOutcome {
	t.Helper()
	s := sim.New(1)
	view := &fakeView{tasks: map[string]map[string]TaskState{}, free: sc.free}
	for wf, tasks := range sc.tasks {
		view.tasks[wf] = map[string]TaskState{}
		for name, st := range tasks {
			view.tasks[wf][name] = st
		}
	}
	exec := &roundExec{s: s, view: view, fails: sc.fails, opDur: sc.opDur}
	rules := map[string]*spec.WorkflowRules{}
	for _, wf := range []string{"W", "V", "U"} {
		r := &spec.WorkflowRules{TaskPriorities: map[string]int{}}
		for i, name := range roundWorkflows[wf] {
			r.TaskPriorities[name] = i
		}
		rules[wf] = r
	}
	rules["W"].Deps = []spec.TaskDep{{Task: "C", Parent: "B", Type: spec.DepTight}}
	cfg := Config{PlanCost: 100 * time.Millisecond, SettleDelay: time.Minute, FailureCooldown: 10 * time.Second}
	tr := trace.New(obs.NewRegistry())
	var rounds Rounds
	eng := New(s, s.Spawn, msg.NewBus(s), "arbiter", cfg, rules, view, exec, tr, &rounds)
	for _, w := range sc.waiting {
		eng.EnqueueWaiting(w)
	}

	out := roundOutcome{Waiting: map[string][]WaitingTask{}, Counters: map[string]int64{}}
	s.Spawn("driver", func(p *sim.Proc) {
		for i, batch := range sc.batches {
			if d := sc.at[i] - p.Now(); d > 0 {
				if err := p.Sleep(d); err != nil {
					return
				}
			}
			// Each round gets its own copy with spare capacity, so a round
			// that writes past its batch's length would show.
			b := make([]decision.Suggestion, len(batch), len(batch)+4)
			copy(b, batch)
			for _, sg := range b {
				tr.Suggested(sg.Seq, sg.Rule.Workflow(), sg.Rule.PolicyID(), actionOf(sg.Rule).String(), "", sim.Time(sg.GeneratedAt), sim.Time(sg.GeneratedAt), sim.Time(sg.DecidedAt))
			}
			out.Returned = append(out.Returned, arbitrate(eng, p, b))
			out.Batches = append(out.Batches, b[:cap(b)])
		}
	})
	if err := s.Run(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	out.Records = rounds
	for wf := range roundWorkflows {
		out.Waiting[wf] = eng.waiting[wf]
	}
	out.Spans = tr.Spans()
	for _, c := range []string{"arbiter.stale_suggestions", "arbiter.empty_rounds", "arbiter.rounds", "arbiter.failed_rounds", "arbiter.requeued_tasks"} {
		out.Counters[c] = tr.Counter(c)
	}
	return out
}

// TestProperty_ArbiterRound_EqualsParent: over seeded multi-workflow batch
// sequences — stale suggestions, ID-less suggestions, a workflow nothing
// composed, failing and succeeding plans — the engine's rounds leave the
// same Records (JSON bytes, so a nil and an empty SuggestionIDs differ),
// returned rounds, T_waiting queues, spans and counters as the parent's
// map-grouping, fresh-snapshot round, and neither writes into its batch.
func TestProperty_ArbiterRound_EqualsParent(t *testing.T) {
	var executed, idless, stale, empty int
	for seed := int64(1); seed <= 300; seed++ {
		sc := genRoundScenario(rand.New(rand.NewSource(seed)))
		got := runRounds(t, sc, (*Engine).Arbitrate)
		want := runRounds(t, sc, parentArbitrate)
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("seed %d: rounds diverge from the parent's\n got: %s\nwant: %s", seed, gotJSON, wantJSON)
		}
		for i, b := range got.Batches {
			if !reflect.DeepEqual(b[:len(sc.batches[i])], sc.batches[i]) || !reflect.DeepEqual(b[len(sc.batches[i]):], make([]decision.Suggestion, cap(b)-len(sc.batches[i]))) {
				t.Fatalf("seed %d: round %d wrote into its batch: %+v", seed, i, b)
			}
		}
		executed += len(got.Records)
		for _, rec := range got.Records {
			if len(rec.SuggestionIDs) == 0 {
				idless++
			}
		}
		stale += int(got.Counters["arbiter.stale_suggestions"])
		empty += int(got.Counters["arbiter.empty_rounds"])
	}
	// The generator must reach every branch the property is about.
	if executed < 100 || idless == 0 || stale < 50 || empty < 50 {
		t.Fatalf("generator coverage: %d executed rounds (%d ID-less), %d stale suggestions, %d empty rounds", executed, idless, stale, empty)
	}
}
