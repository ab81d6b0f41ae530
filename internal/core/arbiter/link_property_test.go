package arbiter

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// parentRun is the engine's receive loop as it stood before suggestion
// rounds were leased: the payload is the sender's []decision.Suggestion,
// read in place and never handed back, and parentGather combines a second
// batch with the first in e.gathered. It is the reference the round link
// is checked against.
func parentRun(e *Engine, p *sim.Proc) {
	for {
		env, err := e.ep.Recv(p)
		if err != nil {
			return
		}
		batch, err := msg.Payload[[]decision.Suggestion](&env)
		if err != nil || len(batch) == 0 {
			continue
		}
		now := e.s.Now()
		if now-e.startedAt < e.cfg.WarmupDelay || now < e.settleUntil {
			reason := "settle"
			if now-e.startedAt < e.cfg.WarmupDelay {
				reason = "warmup"
			}
			e.nDiscarded.Add(1)
			for i := range batch {
				e.tr.Drop(batch[i].Seq, reason, now)
			}
			continue
		}
		e.busy = true
		batch = parentGather(e, p, batch)
		if e.s.Stopped() {
			return
		}
		e.Arbitrate(p, batch)
		if e.s.Stopped() {
			return
		}
		e.busy = false
	}
}

// parentGather is the parent's gather window over []decision.Suggestion
// payloads.
func parentGather(e *Engine, p *sim.Proc, batch []decision.Suggestion) []decision.Suggestion {
	if e.cfg.GatherWindow <= 0 {
		return batch
	}
	owned := false
	deadline := e.s.Now() + e.cfg.GatherWindow
	for {
		remaining := deadline - e.s.Now()
		if remaining <= 0 {
			return batch
		}
		step := 500 * time.Millisecond
		if remaining < step {
			step = remaining
		}
		if err := p.Sleep(step); err != nil {
			return batch
		}
		for {
			env, ok := e.ep.TryRecv()
			if !ok {
				break
			}
			if more, err := msg.Payload[[]decision.Suggestion](&env); err == nil && len(more) > 0 {
				if !owned {
					batch = append(e.gathered[:0], batch...)
					owned = true
				}
				batch = append(batch, more...)
				e.gathered = batch
			}
		}
	}
}

// linkRound is one drawn round: the instant Decision sends it, its
// suggestions, and whether the bus is snapshotted and restored when it is
// delivered.
type linkRound struct {
	at      time.Duration
	sugs    []decision.Suggestion
	restore bool
}

// linkScenario is one drawn drive of the round link: the two workflows'
// initial tasks, the free cores, the per-plan actuation outcomes and the
// rounds.
type linkScenario struct {
	tasks  map[string]map[string]TaskState
	free   int
	fails  []int
	rounds []linkRound
}

// drawLinkScenario draws a drive from next(n) ∈ [0, n): rounds of 0–3
// suggestions over one or both of W and V, some in the same instant, some
// inside the gather window of the one before and some across it, the
// first inside the warm-up; suggestions decided up to 3 minutes before
// they are sent, so a task started since makes them stale.
func drawLinkScenario(next func(int) int) linkScenario {
	sc := linkScenario{tasks: map[string]map[string]TaskState{}, free: next(80)}
	for _, wf := range []string{"W", "V"} {
		sc.tasks[wf] = map[string]TaskState{}
		for _, name := range roundWorkflows[wf] {
			st := TaskState{Procs: 1 + next(20), CoresPerProc: next(2)}
			if next(3) > 0 {
				st.Running = true
				st.StartedAt = sim.Time(next(30)) * sim.Time(time.Second)
			}
			sc.tasks[wf][name] = st
		}
	}
	for i, n := 0, 1+next(3); i < n; i++ {
		sc.fails = append(sc.fails, next(4)-1)
	}
	actions := []string{"ADDCPU", "RMCPU", "STOP", "START", "RESTART"}
	at, seq := 10*time.Second, 0
	for i, n := 0, 4+next(12); i < n; i++ {
		switch next(4) {
		case 0: // the instant of the round before
		case 1:
			at += time.Duration(1+next(4)) * time.Second // inside its gather window
		default:
			at += time.Duration(6+next(200)) * time.Second // across it
		}
		wfs := []string{"W", "V"}
		if next(2) == 0 {
			wfs = wfs[next(2):][:1]
		}
		rd := linkRound{at: at, restore: next(4) == 0}
		for k := next(4); k > 0; k-- {
			wf := wfs[next(len(wfs))]
			names := roundWorkflows[wf]
			sg := decision.Suggestion{
				Rule: decision.NewRule(wf, fmt.Sprintf("P%d", next(3)), actions[next(len(actions))],
					names[next(len(names))], []string{names[next(len(names))]},
					map[string]string{"adjust-by": fmt.Sprint(1 + next(12))}),
				GeneratedAt: int64(max(0, at-time.Duration(next(60))*time.Second)),
				DecidedAt:   int64(max(0, at-time.Duration(next(180))*time.Second)),
			}
			if next(3) > 0 {
				seq++
				sg.Seq = seq
			}
			rd.sugs = append(rd.sugs, sg)
		}
		sc.rounds = append(sc.rounds, rd)
	}
	return sc
}

// linkOutcome is what a drive leaves behind that the property compares.
type linkOutcome struct {
	Records  Rounds
	Spans    []trace.Span
	Counters map[string]int64
	Waiting  map[string][]WaitingTask
	// Restored counts the rounds a restore put back on the queue; it is
	// the drive's, not compared.
	Restored int `json:"-"`
}

// linkCodec is the orchestrator's checkpoint codec for the round link: a
// queued round is the JSON of its suggestions' records, and decodes to a
// round with no home, or, for the parent, to a []decision.Suggestion.
func linkCodec(bus *msg.Bus, parent bool) {
	bus.Encode = func(to string, payload any) ([]byte, error) {
		switch p := payload.(type) {
		case *decision.Round:
			return json.Marshal(ckpt.Map(p.Sugs, decision.Suggestion.Record))
		case []decision.Suggestion:
			return json.Marshal(ckpt.Map(p, decision.Suggestion.Record))
		}
		return nil, fmt.Errorf("no record holds a %T queued on %q", payload, to)
	}
	bus.Decode = func(_ string, data []byte) (any, error) {
		var rs []decision.SuggestionRecord
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, err
		}
		sugs, err := ckpt.TryMap(rs, decision.SuggestionRecord.Live)
		if parent {
			return sugs, err
		}
		return &decision.Round{Sugs: sugs}, err
	}
}

// runLink plays sc through an engine on a bus, the rounds sent from a
// Decision endpoint: leased rounds off one free list to the engine's
// receive loop, or, for the parent, fresh []decision.Suggestion payloads to
// parentRun. On the leased side it checks, at every delivery and at the
// end, that each round taken is in exactly one place — a pending
// delivery, the queue or the free list — so each goes home exactly once
// per send; that every round on the free list is poisoned; and that
// releasing one again panics.
func runLink(t testing.TB, sc linkScenario, parent bool) linkOutcome {
	t.Helper()
	s := sim.New(1)
	view := &fakeView{tasks: map[string]map[string]TaskState{}, free: sc.free}
	for wf, tasks := range sc.tasks {
		view.tasks[wf] = map[string]TaskState{}
		for name, st := range tasks {
			view.tasks[wf][name] = st
		}
	}
	exec := &roundExec{s: s, view: view, fails: sc.fails}
	rules := map[string]*spec.WorkflowRules{}
	for _, wf := range []string{"W", "V"} {
		r := &spec.WorkflowRules{TaskPriorities: map[string]int{}}
		for i, name := range roundWorkflows[wf] {
			r.TaskPriorities[name] = i
		}
		rules[wf] = r
	}
	cfg := Config{WarmupDelay: 30 * time.Second, SettleDelay: time.Minute, FailureCooldown: 10 * time.Second,
		PlanCost: 100 * time.Millisecond, GatherWindow: 5 * time.Second}
	tr := trace.New(obs.NewRegistry())
	var rounds Rounds
	bus := msg.NewBus(s)
	linkCodec(bus, parent)
	dec := bus.Endpoint("decision")
	eng := New(s, s.Spawn, bus, "arbiter", cfg, rules, view, exec, tr, &rounds)
	if parent {
		eng.startedAt, eng.started = s.Now(), true
		eng.proc = s.Spawn("arbiter", func(p *sim.Proc) { parentRun(eng, p) })
	} else {
		eng.Start()
	}

	var free []*decision.Round
	made := map[*decision.Round]bool{} // every round taken, each allocated once
	var pending []*decision.Round      // sent, not yet delivered, in send order
	var capture *[]*decision.Round     // set while census lists the queue
	encode := bus.Encode
	bus.Encode = func(to string, p any) ([]byte, error) {
		if capture != nil {
			if r, ok := p.(*decision.Round); ok {
				*capture = append(*capture, r)
			}
			return nil, nil
		}
		return encode(to, p)
	}
	census := func(at string) {
		var queued []*decision.Round
		capture = &queued
		bus.Snapshot()
		capture = nil
		where := map[*decision.Round]int{}
		for _, r := range slices.Concat(free, queued, pending) {
			where[r]++
		}
		for r := range made {
			if where[r] != 1 {
				t.Fatalf("%s: a round is in %d places (pending, queued, free list), want 1", at, where[r])
			}
		}
	}

	out := linkOutcome{Counters: map[string]int64{}, Waiting: map[string][]WaitingTask{}}
	delivered := 0
	bus.OnDepth = func(to string, _ int) {
		if to != "arbiter" {
			return
		}
		rd := sc.rounds[delivered]
		delivered++
		if !parent {
			pending = pending[1:] // the bus delivers in send order
		}
		if rd.restore {
			snap := bus.Snapshot()
			ep := bus.Endpoint("arbiter")
			for {
				env, ok := ep.TryRecv()
				if !ok {
					break
				}
				out.Restored++
				if r, err := msg.Payload[*decision.Round](&env); err == nil {
					r.Release()
				}
			}
			if err := bus.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		if !parent {
			census(fmt.Sprintf("delivery %d at %v", delivered, s.Now()))
		}
	}
	for _, rd := range sc.rounds {
		s.At(rd.at, func() {
			for _, sg := range rd.sugs {
				tr.Suggested(sg.Seq, sg.Rule.Workflow(), sg.Rule.PolicyID(), actionOf(sg.Rule).String(), "", sim.Time(sg.GeneratedAt), sim.Time(sg.GeneratedAt), sim.Time(sg.DecidedAt))
			}
			var payload any = slices.Clone(rd.sugs)
			if !parent {
				r := decision.TakeRound(&free)
				r.Sugs = append(r.Sugs, rd.sugs...)
				made[r] = true
				pending = append(pending, r)
				payload = r
			}
			if err := dec.Send("arbiter", payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := s.Run(sc.rounds[len(sc.rounds)-1].at + 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if delivered != len(sc.rounds) {
		t.Fatalf("%d of %d rounds delivered", delivered, len(sc.rounds))
	}

	if !parent {
		census("the end")
		if len(free) != len(made) {
			t.Fatalf("the free list holds %d rounds, %d were made", len(free), len(made))
		}
		for _, r := range free {
			for _, sg := range r.Sugs {
				if sg.Rule != nil || !math.IsNaN(sg.MetricValue) {
					t.Fatalf("a released round still reads %+v", sg)
				}
			}
		}
		r := free[len(free)-1]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("releasing a round twice did not panic")
				}
			}()
			r.Release()
		}()
	}

	out.Records = rounds
	out.Spans = tr.Spans()
	for _, c := range []string{"arbiter.discarded_batches", "arbiter.stale_suggestions", "arbiter.empty_rounds", "arbiter.rounds", "arbiter.failed_rounds", "arbiter.requeued_tasks"} {
		out.Counters[c] = tr.Counter(c)
	}
	for wf := range sc.tasks {
		out.Waiting[wf] = eng.waiting[wf]
	}
	return out
}

// roundLink drives sc through the leased link and the parent's, and
// fails unless both leave the same round records, spans — their drops
// among them — counters and T_waiting queues. It returns the leased
// side's outcome.
func roundLink(t testing.TB, next func(n int) int) linkOutcome {
	t.Helper()
	sc := drawLinkScenario(next)
	got, want := runLink(t, sc, false), runLink(t, sc, true)
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("the leased round link diverges from the parent's\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	return got
}

// TestProperty_RoundLink_EqualsFresh: over seeded drives, the Arbiter
// reading leased rounds leaves what the parent's receive loop reading
// fresh []decision.Suggestion payloads leaves, and every round goes home
// once per send (runLink). The drives must reach warm-up and settle
// drops, stale screening, empty plans, executed rounds and restored
// rounds.
func TestProperty_RoundLink_EqualsFresh(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var warmup, settle, stale, empty, executed, restored int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out := roundLink(t, rng.Intn)
		for _, sp := range out.Spans {
			switch sp.Dropped {
			case "warmup":
				warmup++
			case "settle":
				settle++
			}
		}
		stale += int(out.Counters["arbiter.stale_suggestions"])
		empty += int(out.Counters["arbiter.empty_rounds"])
		executed += len(out.Records)
		restored += out.Restored
	}
	if warmup == 0 || settle == 0 || stale == 0 || empty == 0 || executed == 0 || restored == 0 {
		t.Fatalf("drive coverage: %d warm-up and %d settle drops, %d stale, %d empty rounds, %d executed, %d restored",
			warmup, settle, stale, empty, executed, restored)
	}
	t.Logf("%d warm-up and %d settle drops, %d stale, %d empty rounds, %d executed, %d restored",
		warmup, settle, stale, empty, executed, restored)
}

// FuzzRoundLink_EqualsFresh is the property over fuzzer-chosen drives:
// each input byte is one draw, and an exhausted input draws 0.
func FuzzRoundLink_EqualsFresh(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 7, 1, 2, 3, 1, 5, 0, 9, 2, 1, 3, 3, 2, 0, 1, 2, 1, 0, 4, 2, 1, 1, 3, 0, 2, 2, 30, 1, 3})
	f.Add([]byte("\x05\x11\x00\x02\x01\x03\x07\x01\x00\x02\x03\x01\x02\x00\x01\x03\x02\x01\x00\x00\x03\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		roundLink(t, next)
	})
}
