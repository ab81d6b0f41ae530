package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
	"dyflow/internal/core/actuate"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/msg"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
	"dyflow/specs"
)

// conservationHolds checks the resource-manager invariant: free + assigned
// healthy cores equals the healthy allocated capacity.
func conservationHolds(t *testing.T, rm *resmgr.Manager, c *cluster.Cluster) {
	t.Helper()
	healthyCap := 0
	for _, id := range rm.AllocatedNodes() {
		if n := c.Node(id); n != nil && n.Healthy() {
			healthyCap += n.Cores
		}
	}
	total := rm.Free().Total()
	for _, owner := range rm.Owners() {
		total += rm.Assigned(owner).Total()
	}
	if total != healthyCap {
		t.Fatalf("conservation violated: free+assigned=%d, healthy capacity=%d", total, healthyCap)
	}
}

// TestChaosNodeFailureDuringAdaptation injects a node failure right inside
// the first Gray-Scott adaptation window (while tasks are being stopped and
// restarted). The run cannot succeed — the scenario has no failure policy —
// but the system must stay consistent: no simulator fault, no resource
// leak, no task half-assigned.
func TestChaosNodeFailureDuringAdaptation(t *testing.T) {
	cfg := apps.GrayScottConfigFor(apps.Summit)
	w, err := NewWorld(1, apps.Summit, cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SV.Compose(apps.GrayScottWorkflow(apps.Summit)); err != nil {
		t.Fatal(err)
	}
	if err := w.StartOrchestration(specs.GrayScott(apps.Summit), core.Options{}); err != nil {
		t.Fatal(err)
	}
	w.Launch(apps.GrayScottWorkflowID)

	// The first adaptation runs ~2m30s-3m30s (stops draining); kill a node
	// right in the middle of it.
	w.Cluster.FailNodeAt(3*time.Minute, "node004")

	if err := w.Run(20 * time.Minute); err != nil {
		t.Fatalf("simulation fault under chaos: %v", err)
	}
	conservationHolds(t, w.RM, w.Cluster)

	// Every interval the recorder closed is internally consistent.
	w.Rec.CloseOpen()
	for _, iv := range w.Rec.Intervals {
		if iv.End < iv.Start {
			t.Fatalf("interval ends before start: %+v", iv)
		}
	}
	// The failed node carries no assignments.
	for _, owner := range w.RM.Owners() {
		if rs := w.RM.Assigned(owner); rs["node004"] != 0 {
			t.Fatalf("%s still assigned on the failed node: %v", owner, rs)
		}
	}
}

// TestChaosNodeFailureDuringAdaptationWithRecoveryPolicy adds
// RESTART_ON_FAILURE to the same chaos scenario: the workflow must come
// back and finish.
func TestChaosNodeFailureDuringAdaptationWithRecoveryPolicy(t *testing.T) {
	cfg := apps.GrayScottConfigFor(apps.Summit)
	w, err := NewWorld(1, apps.Summit, cfg.Nodes+1) // one spare node
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SV.Compose(apps.GrayScottWorkflow(apps.Summit)); err != nil {
		t.Fatal(err)
	}
	if err := w.StartOrchestration(spliceRecovery(specs.GrayScott(apps.Summit)), core.Options{}); err != nil {
		t.Fatal(err)
	}
	w.Launch(apps.GrayScottWorkflowID)
	w.Cluster.FailNodeAt(3*time.Minute, "node004")

	end, err := w.RunUntilWorkflowDone(apps.GrayScottWorkflowID, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	conservationHolds(t, w.RM, w.Cluster)
	gs := w.SV.Instance(apps.GrayScottWorkflowID, "GrayScott")
	if gs.State().String() != "Completed" {
		t.Fatalf("GrayScott = %v after recovery (end %v)", gs.State(), end)
	}
	if gs.Incarnation == 0 {
		t.Fatal("GrayScott should have been restarted after the failure")
	}
}

// chaosBench is a small world whose arbiter is driven directly (no policy
// pipeline), so rounds land at exact instants: A pins two nodes, B runs on
// the third, C exists only to give later rounds a no-op suggestion.
type chaosBench struct {
	w    *World
	ex   *actuate.Executor
	eng  *arbiter.Engine
	tr   *trace.Recorder
	kill func(after time.Duration, id cluster.NodeID)
}

func newChaosBench(t *testing.T, nodes int) *chaosBench {
	t.Helper()
	w, err := NewWorld(1, apps.Deepthought2, nodes)
	if err != nil {
		t.Fatal(err)
	}
	err = w.SV.Compose(&wms.WorkflowSpec{
		ID: "CH",
		Tasks: []wms.TaskConfig{
			{Spec: task.Spec{Name: "A", Workflow: "CH",
				Cost: task.Cost{Work: time.Hour}, TotalSteps: 3600},
				Procs: 40, ProcsPerNode: 20, AutoStart: true},
			{Spec: task.Spec{Name: "B", Workflow: "CH",
				Cost: task.Cost{Work: time.Hour}, TotalSteps: 3600},
				Procs: 20, ProcsPerNode: 20, AutoStart: true, StartScript: "warm.sh"},
			{Spec: task.Spec{Name: "C", Workflow: "CH",
				Cost: task.Cost{Work: time.Hour}, TotalSteps: 3600},
				Procs: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.SV.RegisterScript("warm.sh", 8*time.Second)

	tr := w.Trace
	ex := actuate.NewExecutor(&actuate.SavannaPlugin{SV: w.SV}, tr)
	eng := arbiter.New(w.Sim, w.Sim.Spawn, msg.NewBus(w.Sim), "arbiter", arbiter.Config{
		PlanCost:        100 * time.Millisecond,
		FailureCooldown: 20 * time.Second,
	}, nil, core.NewArbiterView(w.SV), ex, tr, w.rounds)

	w.Launch("CH")
	b := &chaosBench{w: w, ex: ex, eng: eng, tr: tr}
	// kill arms a node failure a fixed delay after B's graceful stop
	// completes (= the instant its restart script starts), so the death
	// lands mid-script regardless of drain length.
	b.kill = func(after time.Duration, id cluster.NodeID) {
		armed := false
		w.SV.OnEvent(func(ev wms.Event) {
			if armed || ev.Kind != wms.TaskEnded || ev.Task != "B" {
				return
			}
			armed = true
			w.Sim.After(after, func() { w.Cluster.FailNode(id) })
		})
	}
	return b
}

func restartB(now sim.Time) []decision.Suggestion {
	return []decision.Suggestion{{Rule: decision.NewRule("CH", "P", "RESTART", "B", []string{"B"}, nil), DecidedAt: int64(now)}}
}

// noop produces a non-empty batch that contributes no operations (STOP on
// the never-started C), so a round picks up only the recovery queue.
func noop(now sim.Time) []decision.Suggestion {
	return []decision.Suggestion{{Rule: decision.NewRule("CH", "P", "STOP", "C", []string{"C"}, nil), DecidedAt: int64(now)}}
}

// waitingOf is an arbiter's T_waiting queue for workflow, read off its
// snapshot.
func waitingOf(eng *arbiter.Engine, workflow string) []arbiter.WaitingTask {
	for _, ws := range eng.Snapshot().Waiting {
		if ws.Workflow == workflow {
			return ws.Tasks
		}
	}
	return nil
}

// TestChaosMidScriptNodeDeathRetriesOntoSpareNode: the node carrying B's
// fresh placement dies while the restart script runs. With a spare node
// available, the retry must re-carve around the dead node — within the
// same plan — and the round succeeds.
func TestChaosMidScriptNodeDeathRetriesOntoSpareNode(t *testing.T) {
	b := newChaosBench(t, 4) // node003 is spare
	b.kill(4*time.Second, "node002")
	b.w.Sim.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		recs := b.eng.Arbitrate(p, restartB(p.Now()))
		if len(recs) != 1 || recs[0].Err != "" {
			t.Errorf("round = %+v, want success via retry", recs)
		}
		if recs[0].AppliedOps != 2 || recs[0].AbortedOps != 0 {
			t.Errorf("ops accounting = %+v", recs[0])
		}
	})
	if err := b.w.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !b.w.SV.TaskRunning("CH", "B") {
		t.Fatal("B not running after in-plan retry")
	}
	pl := b.w.SV.Instance("CH", "B").Placement
	if _, onDead := pl["node002"]; onDead {
		t.Fatalf("B landed on the dead node: %v", pl)
	}
	if got := b.tr.Counter("actuate.recovered_ops"); got != 1 {
		t.Fatalf("actuate.recovered_ops = %d, want 1", got)
	}
	if got := b.tr.Counter("arbiter.requeued_tasks"); got != 0 {
		t.Fatalf("requeued = %d, want 0 (recovered inside the plan)", got)
	}
	if leaked := LeakedOwners(b.w); len(leaked) != 0 {
		t.Fatalf("leaked assignments: %v", leaked)
	}
	conservationHolds(t, b.w.RM, b.w.Cluster)
}

// TestChaosMidPlanNodeDeathRequeuesAndConverges is the headline recovery
// scenario: a node dies between a plan's STOP and START (mid-script), no
// spare capacity exists, so the retries exhaust and the round fails with B
// gracefully stopped (exit 0 — no failure policy will ever fire for it).
// The engine must re-enqueue B as a recovery entry and restart it on the
// next round, once the node heals. Before the recovery layer, Execute
// aborted and forgot: B stayed stranded forever and this test fails.
func TestChaosMidPlanNodeDeathRequeuesAndConverges(t *testing.T) {
	b := newChaosBench(t, 3) // no spare: retries must exhaust
	b.kill(4*time.Second, "node002")
	b.w.Sim.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		recs := b.eng.Arbitrate(p, restartB(p.Now()))
		if len(recs) != 1 || recs[0].Err == "" {
			t.Errorf("round = %+v, want mid-plan failure", recs)
			return
		}
		if recs[0].AppliedOps != 1 || recs[0].AbortedOps != 1 {
			t.Errorf("ops accounting = %+v, want stop applied, start aborted", recs[0])
		}
		if wt := waitingOf(b.eng, "CH"); len(wt) != 1 || wt[0].Task != "B" || !wt[0].Recovery {
			t.Errorf("waiting = %+v, want B requeued for recovery", wt)
		}
		// B is stranded until capacity returns; heal the node, then run a
		// round that contributes nothing of its own.
		b.w.Cluster.RestoreNode("node002")
		p.Sleep(30 * time.Second)
		recs = b.eng.Arbitrate(p, noop(p.Now()))
		if len(recs) != 1 || recs[0].Err != "" {
			t.Errorf("recovery round = %+v", recs)
		}
	})
	if err := b.w.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	inst := b.w.SV.Instance("CH", "B")
	if inst == nil || !inst.Alive() {
		t.Fatal("B stranded: recovery round did not restart it")
	}
	if inst.Incarnation != 1 {
		t.Fatalf("B incarnation = %d, want 1 (restarted once)", inst.Incarnation)
	}
	if got := b.tr.Counter("arbiter.requeued_tasks"); got < 1 {
		t.Fatalf("arbiter.requeued_tasks = %d, want >= 1", got)
	}
	if got := b.tr.Counter("actuate.retries"); got < 1 {
		t.Fatalf("actuate.retries = %d, want >= 1", got)
	}
	if wt := waitingOf(b.eng, "CH"); len(wt) != 0 {
		t.Fatalf("waiting = %+v, want drained", wt)
	}
	if leaked := LeakedOwners(b.w); len(leaked) != 0 {
		t.Fatalf("leaked assignments: %v", leaked)
	}
	conservationHolds(t, b.w.RM, b.w.Cluster)
}

// TestChaosCampaignConverges runs the full seeded campaign (kills + heals +
// flaky carves) across seeds: every run must converge with no leaked
// assignment, and a replay with the same seed must be identical.
func TestChaosCampaignConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign is slow")
	}
	opts := DefaultChaosOptions()
	var first *ChaosResult
	for seed := int64(1); seed <= 3; seed++ {
		res, err := RunChaos(seed, apps.Summit, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			var sb strings.Builder
			res.Write(&sb)
			t.Fatalf("seed %d did not converge:\n%s", seed, sb.String())
		}
		if countEvents(res.Events, "kill") == 0 {
			t.Fatalf("seed %d: campaign fired no kills", seed)
		}
		if seed == 1 {
			first = res
		}
	}
	replay, err := RunChaos(1, apps.Summit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Events, replay.Events) || first.End != replay.End ||
		first.Retries != replay.Retries || first.RequeuedTasks != replay.RequeuedTasks {
		t.Fatalf("seed 1 replay diverged:\n%+v\n%+v", first, replay)
	}
}

// TestChaosLaunchSurvivesInjectedCarveFault: a chaos job whose campaign
// injects a carve fault into the workflow's launch (seed 7 trips
// GrayScott's first carve) retries the carve and runs, as the other seeds
// do.
func TestChaosLaunchSurvivesInjectedCarveFault(t *testing.T) {
	if _, err := RunJob(Job{Scenario: ScenarioChaos, Machine: "summit", Seed: 7}, nil); err != nil {
		t.Fatal(err)
	}
}

// statusUnhealthy is the extraction Actuation used to make of the
// resource manager's whole status: the allocated nodes, in order, that are
// out of service.
func statusUnhealthy(w *World) []cluster.NodeID {
	var out []cluster.NodeID
	for _, id := range w.RM.AllocatedNodes() {
		if n := w.Cluster.Node(id); n != nil && !n.Healthy() {
			out = append(out, id)
		}
	}
	return out
}

// TestProperty_UnhealthyNodes_EqualsStatus: what Actuation asks before
// each start attempt, Savanna's UnhealthyNodes, equals the unhealthy
// nodes the full status reported, at every node kill and heal and every
// tick of chaos campaigns on both machines.
func TestProperty_UnhealthyNodes_EqualsStatus(t *testing.T) {
	seen := 0
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		for seed := int64(1); seed <= 4; seed++ {
			check := func(w *World, at string) {
				got, want := w.SV.UnhealthyNodes(), statusUnhealthy(w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v seed %d %s: UnhealthyNodes() = %v, the status reported %v", m, seed, at, got, want)
				}
				if len(want) > 0 {
					seen++
				}
			}
			res, err := RunChaosVariant(seed, m, DefaultChaosOptions(), Variant{Configure: func(w *World) error {
				w.Cluster.OnHealthChange(func(n *cluster.Node, healthy bool) {
					check(w, fmt.Sprintf("%s healthy=%v at %v", n.ID, healthy, w.Sim.Now()))
				})
				w.OnProgress = func(now sim.Time) error {
					check(w, fmt.Sprintf("tick %v", now))
					return nil
				}
				return nil
			}})
			if err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			res.W.Close()
		}
	}
	if seen == 0 {
		t.Fatal("no check saw an unhealthy node; the campaigns must kill some")
	}
}

// cloneShort is the check Savanna's StartTask made after a launch's
// script before resmgr.Short: it cloned the owner's assignment and
// compared totals.
func cloneShort(rm *resmgr.Manager, owner string, carve resmgr.ResourceSet) ([]cluster.NodeID, bool) {
	if held := rm.Assigned(owner); held.Total() != carve.Total() {
		var lost []cluster.NodeID
		for id, n := range carve {
			if held[id] < n {
				lost = append(lost, id)
			}
		}
		return cluster.SortNodeIDs(lost), false
	}
	return nil, true
}

// TestProperty_PlacementShort_EqualsClone: the placement check StartTask
// makes, resmgr.Short, equals the clone-based check it replaced — the
// lost nodes, whether the carve is whole and the PlacementLostError text —
// for every task's launch carve at every launch, task end, node kill and
// heal and every tick of chaos campaigns on both machines.
func TestProperty_PlacementShort_EqualsClone(t *testing.T) {
	short := 0
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		for seed := int64(1); seed <= 4; seed++ {
			carves := map[string]resmgr.ResourceSet{}
			var owners []string
			check := func(w *World, at string) {
				for _, o := range owners {
					lost, whole := w.RM.Short(o, carves[o])
					wantLost, wantWhole := cloneShort(w.RM, o, carves[o])
					if !reflect.DeepEqual(lost, wantLost) || whole != wantWhole {
						t.Fatalf("%v seed %d %s: Short(%s, %v) = %v, %v; the clone-based check %v, %v", m, seed, at, o, carves[o], lost, whole, wantLost, wantWhole)
					}
					if whole {
						continue
					}
					short++
					wf, task, _ := strings.Cut(o, "/")
					got := (&wms.PlacementLostError{Workflow: wf, Task: task, Nodes: lost}).Error()
					if want := (&wms.PlacementLostError{Workflow: wf, Task: task, Nodes: wantLost}).Error(); got != want {
						t.Fatalf("%v seed %d %s: %q, the clone-based check %q", m, seed, at, got, want)
					}
				}
			}
			res, err := RunChaosVariant(seed, m, DefaultChaosOptions(), Variant{Configure: func(w *World) error {
				w.SV.OnEvent(func(ev wms.Event) {
					o := ev.Workflow + "/" + ev.Task
					if ev.Kind == wms.TaskStarted {
						if _, ok := carves[o]; !ok {
							owners = append(owners, o)
						}
						carves[o] = w.RM.Assigned(o)
					}
					check(w, fmt.Sprintf("%s event %d at %v", o, ev.Kind, w.Sim.Now()))
				})
				w.Cluster.OnHealthChange(func(n *cluster.Node, healthy bool) {
					check(w, fmt.Sprintf("%s healthy=%v at %v", n.ID, healthy, w.Sim.Now()))
				})
				w.OnProgress = func(now sim.Time) error {
					check(w, fmt.Sprintf("tick %v", now))
					return nil
				}
				return nil
			}})
			if err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			res.W.Close()
		}
	}
	if short == 0 {
		t.Fatal("no check saw a carve short of its launch; the campaigns must trim or end some")
	}
	t.Logf("%d checks found a carve short", short)
}
