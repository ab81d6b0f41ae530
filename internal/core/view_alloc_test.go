package core

import (
	"fmt"
	"testing"
	"time"

	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
)

// warmRoundAllocs composes a workflow of n running tasks plus one never
// started, and counts the allocations of a warm arbitration round through
// the Savanna view: a one-suggestion batch acting on the idle task whose
// plan comes out empty, the shape of most rounds of an xgc run.
func warmRoundAllocs(t *testing.T, n int, action string, params map[string]string) float64 {
	t.Helper()
	w := newWorld(t, (n+19)/20+1)
	tasks := []wms.TaskConfig{{Spec: task.Spec{Name: "idle", Workflow: "WF",
		Cost: task.Cost{Work: time.Hour}, TotalSteps: 10}, Procs: 1}}
	for i := 0; i < n; i++ {
		tasks = append(tasks, wms.TaskConfig{Spec: task.Spec{Name: fmt.Sprintf("t%03d", i), Workflow: "WF",
			Cost: task.Cost{Work: time.Hour}, TotalSteps: 10}, Procs: 1, AutoStart: true})
	}
	if err := w.sv.Compose(&wms.WorkflowSpec{ID: "WF", Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	eng := arbiter.New(w.s, w.s.Spawn, msg.NewBus(w.s), "arbiter", arbiter.DefaultConfig(), nil, NewArbiterView(w.sv), nil, trace.New(obs.NewRegistry()), new(arbiter.Rounds))
	var allocs float64
	w.s.Spawn("driver", func(p *sim.Proc) {
		if err := w.sv.Launch(p, "WF"); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(time.Second)
		batch := []decision.Suggestion{{Rule: decision.NewRule("WF", "P", action, "idle", []string{"idle"}, params), DecidedAt: int64(p.Now())}}
		round := func() {
			if recs := eng.Arbitrate(p, batch); len(recs) != 0 {
				t.Errorf("round executed %+v, want an empty plan", recs)
			}
		}
		round() // the first round sizes the engine's buffers and task map
		allocs = testing.AllocsPerRun(100, round)
	})
	if err := w.s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// A warm round allocates for its batch, not for its workflow: the engine's
// task map is filled in place and the free count is summed without a set,
// so the round costs the same at 4 composed tasks as at 64.
func TestWarmRoundAllocationsIndependentOfTaskCount(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small, large := warmRoundAllocs(t, 4, "STOP", nil), warmRoundAllocs(t, 64, "STOP", nil)
	if small != large {
		t.Fatalf("warm round allocates %v times at 4 tasks, %v at 64", small, large)
	}
}

// A warm round whose START is denied for insufficient resources — xgc's
// common round — allocates nothing: the planner's scratch is reused and
// the empty plan reports no denial, at 4 composed tasks and at 64.
func TestWarmDeniedRoundAllocationsIndependentOfTaskCount(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	params := map[string]string{"procs": "100000"}
	small, large := warmRoundAllocs(t, 4, "START", params), warmRoundAllocs(t, 64, "START", params)
	if small != large || small != 0 {
		t.Fatalf("warm denied round allocates %v times at 4 tasks, %v at 64; want 0 at both", small, large)
	}
}
