package arbiter

import (
	"fmt"
	"testing"
	"time"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// BenchmarkBuildPlan measures Algorithm 1's planning cost on a workflow
// with many tasks and simultaneous suggestions — the "time spent
// formulating the plan is low" claim of §4.6. "warm" plans on one reused
// planner, as the engine does from its second round on, so its allocs/op
// are the plan's outputs alone; "cold" is BuildPlan, a fresh planner per
// plan, which is what an engine's first round costs.
func BenchmarkBuildPlan(b *testing.B) {
	for _, n := range []int{5, 20, 100} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			rules := &spec.WorkflowRules{
				TaskPriorities:   map[string]int{},
				PolicyPriorities: map[string]int{},
			}
			tasks := make(map[string]TaskState, n)
			var sgs []decision.Suggestion
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("task%03d", i)
				rules.TaskPriorities[name] = i
				tasks[name] = TaskState{Running: true, Procs: 20}
				if i%2 == 1 {
					sgs = append(sgs, decision.Suggestion{Rule: decision.NewRule("W", "INC", "ADDCPU", name, []string{name}, map[string]string{"adjust-by": "10"})})
				}
				if i > 0 && i%3 == 0 {
					rules.Deps = append(rules.Deps, spec.TaskDep{
						Task: name, Parent: fmt.Sprintf("task%03d", i-1), Type: spec.DepTight,
					})
				}
			}
			in := PlanInput{
				Workflow:    "W",
				Suggestions: sgs,
				Tasks:       tasks,
				FreeCores:   n * 5,
				Rules:       rules,
			}
			b.Run("warm", func(b *testing.B) {
				var p planner
				p.build(in)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if plan, _ := p.build(in); plan.Empty() {
						b.Fatal("plan unexpectedly empty")
					}
				}
			})
			b.Run("cold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if plan, _ := BuildPlan(in); plan.Empty() {
						b.Fatal("plan unexpectedly empty")
					}
				}
			})
		})
	}
}

// BenchmarkArbitrateRound measures one warm Engine round end to end —
// snapshot, stale screening, planning — for a one-suggestion batch whose
// plan comes out empty, the shape of most rounds of an xgc run. Its
// allocations should not grow with the task count.
func BenchmarkArbitrateRound(b *testing.B) {
	for _, n := range []int{5, 20, 100} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			tasks := make(map[string]TaskState, n)
			rules := &spec.WorkflowRules{TaskPriorities: map[string]int{}}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("task%03d", i)
				rules.TaskPriorities[name] = i
				tasks[name] = TaskState{Running: true, Procs: 20, StartedAt: sim.Time(time.Second)}
			}
			tasks["idle"] = TaskState{Procs: 4}
			s := sim.New(1)
			view := &fakeView{tasks: map[string]map[string]TaskState{"W": tasks}, free: n * 5}
			eng := New(s, s.Spawn, msg.NewBus(s), "arbiter", DefaultConfig(), map[string]*spec.WorkflowRules{"W": rules}, view, &fakeExec{s: s, failAfter: -1}, trace.New(obs.NewRegistry()), new(Rounds))
			batch := []decision.Suggestion{{Rule: decision.NewRule("W", "STOP_IDLE", "STOP", "idle", []string{"idle"}, nil), DecidedAt: int64(2 * time.Second)}}
			s.Spawn("driver", func(p *sim.Proc) {
				eng.Arbitrate(p, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if recs := eng.Arbitrate(p, batch); len(recs) != 0 {
						b.Error("round unexpectedly executed a plan")
						return
					}
				}
			})
			if err := s.Run(time.Second); err != nil {
				b.Fatal(err)
			}
		})
	}
}
