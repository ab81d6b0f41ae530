package arbiter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
)

// genInput builds a random but well-formed PlanInput from fuzz bytes.
func genInput(seed int64) PlanInput {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"A", "B", "C", "D", "E"}
	tasks := make(map[string]TaskState, len(names))
	rules := &spec.WorkflowRules{
		TaskPriorities:   map[string]int{},
		PolicyPriorities: map[string]int{},
	}
	for i, n := range names {
		tasks[n] = TaskState{
			Running: rng.Intn(3) > 0,
			Procs:   rng.Intn(30) + 1,
			PerNode: 0,
		}
		rules.TaskPriorities[n] = i
	}
	// A random tight dependency chain.
	if rng.Intn(2) == 0 {
		rules.Deps = append(rules.Deps, spec.TaskDep{Task: "C", Parent: "B", Type: spec.DepTight})
	}
	if rng.Intn(2) == 0 {
		rules.Deps = append(rules.Deps, spec.TaskDep{Task: "E", Parent: "D", Type: spec.DepTight})
	}
	actions := []string{"ADDCPU", "RMCPU", "STOP", "START", "RESTART", "SWITCH"}
	var sgs []decision.Suggestion
	for i := 0; i < rng.Intn(6); i++ {
		target := names[rng.Intn(len(names))]
		sgs = append(sgs, decision.Suggestion{Rule: decision.NewRule("W", "P"+target, actions[rng.Intn(len(actions))], names[rng.Intn(len(names))], []string{target}, map[string]string{"adjust-by": "10"})})
	}
	var waiting []WaitingTask
	for i := 0; i < rng.Intn(3); i++ {
		n := names[rng.Intn(len(names))]
		if !tasks[n].Running {
			waiting = append(waiting, WaitingTask{Workflow: "W", Task: n, Procs: rng.Intn(20) + 1})
		}
	}
	return PlanInput{
		Workflow:    "W",
		Suggestions: sgs,
		Tasks:       tasks,
		FreeCores:   rng.Intn(60),
		Rules:       rules,
		Waiting:     waiting,
	}
}

// TestPlanInvariants checks Algorithm 1's safety properties over random
// inputs:
//  1. feasibility: running the plan never needs more cores than free +
//     what the plan's stops release;
//  2. ordering: every stop precedes every start;
//  3. no duplicate operations per (task, kind);
//  4. starts only for non-running tasks without a same-plan stop, stops
//     only for running tasks;
//  5. victims have strictly lower priority than the most important
//     acquiring operation.
func TestPlanInvariants(t *testing.T) {
	f := func(seed int64) bool {
		in := genInput(seed)
		plan, waiting := BuildPlan(in)

		seen := map[string]map[OpKind]int{}
		lastStop, firstStart := -1, len(plan.Ops)
		freed, needed := 0, 0
		for i, op := range plan.Ops {
			if seen[op.Task] == nil {
				seen[op.Task] = map[OpKind]int{}
			}
			seen[op.Task][op.Kind]++
			if seen[op.Task][op.Kind] > 1 {
				t.Logf("seed %d: duplicate %v on %s: %v", seed, op.Kind, op.Task, plan.Ops)
				return false
			}
			switch op.Kind {
			case OpStop:
				if !in.Tasks[op.Task].Running {
					t.Logf("seed %d: stop of non-running %s", seed, op.Task)
					return false
				}
				st := in.Tasks[op.Task]
				freed += st.Procs * st.cpp()
				if i > lastStop {
					lastStop = i
				}
			case OpStart:
				st := in.Tasks[op.Task]
				if st.Running && seen[op.Task][OpStop] == 0 {
					t.Logf("seed %d: start of running %s without stop", seed, op.Task)
					return false
				}
				needed += op.Procs * st.cpp()
				if i < firstStart {
					firstStart = i
				}
			}
		}
		if lastStop > firstStart {
			t.Logf("seed %d: stop after start: %v", seed, plan.Ops)
			return false
		}
		if needed > freed+in.FreeCores {
			t.Logf("seed %d: infeasible plan needs %d > freed %d + free %d: %v",
				seed, needed, freed, in.FreeCores, plan.Ops)
			return false
		}
		// Victim priority rule: a victim is strictly less important than
		// the most important suggestion-driven acquiring operation. Starts
		// drawn from the waiting queue (Policy == "") are surplus
		// consumers, not acquirers, and do not set the floor.
		bestAcq := 1 << 30
		for _, op := range plan.Ops {
			if op.Kind != OpStart || op.Victim || op.Policy == "" {
				continue
			}
			st := in.Tasks[op.Task]
			acquires := !st.Running || op.Procs > st.Procs
			if !acquires {
				continue
			}
			if p := in.Rules.TaskPriority(op.Task); p < bestAcq {
				bestAcq = p
			}
		}
		for _, op := range plan.Ops {
			if op.Victim && in.Rules.TaskPriority(op.Task) <= bestAcq {
				t.Logf("seed %d: victim %s (pri %d) not strictly below best acquirer (pri %d)",
					seed, op.Task, in.Rules.TaskPriority(op.Task), bestAcq)
				return false
			}
		}
		// Waiting-queue entries never reference tasks the plan starts.
		for _, w := range waiting {
			for _, op := range plan.Ops {
				if op.Kind == OpStart && op.Task == w.Task {
					t.Logf("seed %d: %s both started and waiting", seed, w.Task)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanDeterminism: identical inputs produce identical plans.
func TestPlanDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a, wa := BuildPlan(genInput(seed))
		b, wb := BuildPlan(genInput(seed))
		if len(a.Ops) != len(b.Ops) || len(wa) != len(wb) {
			return false
		}
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				return false
			}
		}
		for i := range wa {
			if wa[i] != wb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNoVictimsNeverStops: with the preemption ablation, no plan contains
// a victim stop.
func TestNoVictimsNeverStops(t *testing.T) {
	f := func(seed int64) bool {
		in := genInput(seed)
		in.NoVictims = true
		plan, _ := BuildPlan(in)
		for _, op := range plan.Ops {
			if op.Victim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestImmediateKillClearsGraceful: the kill ablation leaves no graceful op.
func TestImmediateKillClearsGraceful(t *testing.T) {
	f := func(seed int64) bool {
		in := genInput(seed)
		in.ImmediateKill = true
		plan, _ := BuildPlan(in)
		for _, op := range plan.Ops {
			if op.Graceful {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
