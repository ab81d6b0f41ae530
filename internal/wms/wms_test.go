package wms

import (
	"errors"
	"testing"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/fsim"
	"dyflow/internal/obs"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
)

type bench struct {
	s   *sim.Sim
	c   *cluster.Cluster
	rm  *resmgr.Manager
	env *task.Env
	sv  *Savanna
	reg *obs.Registry // the runtime's and its manager's metrics
}

func newBench(t *testing.T, nodes int) *bench {
	t.Helper()
	s := sim.New(1)
	c := cluster.Deepthought2(s, nodes)
	reg := obs.NewRegistry()
	rm := resmgr.New(c, reg)
	if _, err := rm.Allocate(nodes); err != nil {
		t.Fatal(err)
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	return &bench{s: s, c: c, rm: rm, env: env, sv: New(env, rm, reg), reg: reg}
}

func simpleWF(total int) *WorkflowSpec {
	return &WorkflowSpec{
		ID: "WF",
		Tasks: []TaskConfig{
			{
				Spec: task.Spec{
					Name: "Sim", Workflow: "WF",
					Cost:       task.Cost{Work: 10 * time.Second},
					TotalSteps: total,
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
		},
	}
}

// TestLaunchBoundsCarveRetries: Launch tries a carve that comes back short
// on resources launchAttempts times, then fails the launch with the
// carve's error.
func TestLaunchBoundsCarveRetries(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(5))
	faults := resmgr.NewFaults(1, 1) // every carve fails
	b.rm.InjectFaults(faults)
	var err error
	b.s.Spawn("driver", func(p *sim.Proc) { err = b.sv.Launch(p, "WF") })
	if rerr := b.s.Run(time.Minute); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, resmgr.ErrInsufficient) {
		t.Fatalf("Launch = %v, want ErrInsufficient", err)
	}
	if got := faults.Injected(); got != launchAttempts {
		t.Fatalf("carves tried = %d, want %d", got, launchAttempts)
	}
}

func TestLaunchAssignsAndRuns(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(5))
	var events []Event
	b.sv.OnEvent(func(ev Event) { events = append(events, ev) })

	b.s.Spawn("driver", func(p *sim.Proc) {
		if err := b.sv.Launch(p, "WF"); err != nil {
			t.Errorf("Launch: %v", err)
		}
	})
	// Mid-run, the task holds 10 cores shaped 5 per node.
	b.s.After(2*time.Second, func() {
		rs := b.sv.rm.Assigned(key("WF", "Sim"))
		if rs.Total() != 10 || rs["node000"] != 5 || rs["node001"] != 5 {
			t.Errorf("assignment = %v", rs)
		}
		if !b.sv.TaskRunning("WF", "Sim") {
			t.Error("task should be running")
		}
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Resources returned after natural completion.
	if got := b.rm.Free().Total(); got != 40 {
		t.Fatalf("free = %d after completion, want 40", got)
	}
	if len(events) != 2 || events[0].Kind != TaskStarted || events[1].Kind != TaskEnded {
		t.Fatalf("events = %+v", events)
	}
	if b.sv.TaskRunning("WF", "Sim") {
		t.Fatal("task should be down")
	}
}

func TestStopTaskWaitsForGracefulDrain(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(100)) // 10 procs -> 1s/step
	var stopDone sim.Time
	b.s.Spawn("driver", func(p *sim.Proc) {
		b.sv.Launch(p, "WF")
		p.Sleep(10500 * time.Millisecond) // mid-step 11
		if err := b.sv.StopTask(p, "WF", "Sim", true); err != nil {
			t.Errorf("StopTask: %v", err)
		}
		stopDone = p.Now()
		if b.rm.Free().Total() != 40 {
			t.Errorf("free after stop = %d, want 40", b.rm.Free().Total())
		}
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if stopDone != 11*time.Second {
		t.Fatalf("stop completed at %v, want 11s (graceful drain to step end)", stopDone)
	}
}

func TestRestartIncrementsIncarnation(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(1000))
	b.s.Spawn("driver", func(p *sim.Proc) {
		b.sv.Launch(p, "WF")
		p.Sleep(5 * time.Second)
		b.sv.StopTask(p, "WF", "Sim", true)
		rs, err := b.rm.Carve(20, 10, nil)
		if err != nil {
			t.Errorf("carve: %v", err)
			return
		}
		if err := b.sv.StartTask(p, "WF", "Sim", rs, ""); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		inst := b.sv.Instance("WF", "Sim")
		if inst.Incarnation != 1 {
			t.Errorf("incarnation = %d, want 1", inst.Incarnation)
		}
		if inst.Placement.Procs() != 20 {
			t.Errorf("restarted procs = %d, want 20", inst.Placement.Procs())
		}
		p.Sleep(time.Second)
		b.sv.StopTask(p, "WF", "Sim", false)
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestStartScriptCostPaidInline(t *testing.T) {
	b := newBench(t, 2)
	wf := simpleWF(3)
	wf.Tasks[0].StartScript = "restart-xgc1.sh"
	wf.Tasks[0].AutoStart = false
	b.sv.Compose(wf)
	b.sv.RegisterScript("restart-xgc1.sh", 4*time.Second)

	var started sim.Time
	b.s.Spawn("driver", func(p *sim.Proc) {
		rs, _ := b.rm.Carve(10, 5, nil)
		if err := b.sv.StartTask(p, "WF", "Sim", rs, "restart-xgc1.sh"); err != nil {
			t.Errorf("StartTask: %v", err)
		}
		started = p.Now()
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if started != 4*time.Second {
		t.Fatalf("StartTask returned at %v, want 4s (script cost)", started)
	}
}

// Regression: StartTask must assign the carve BEFORE paying the script
// cost, so a node death during the (possibly long) user script surfaces as
// a PlacementLostError naming the dead nodes — with nothing left assigned —
// instead of launching on a placement that no longer exists.
func TestStartTaskNodeDiesDuringScript(t *testing.T) {
	b := newBench(t, 2)
	wf := simpleWF(3)
	wf.Tasks[0].StartScript = "restart.sh"
	wf.Tasks[0].AutoStart = false
	b.sv.Compose(wf)
	b.sv.RegisterScript("restart.sh", 10*time.Second)

	b.s.At(5*time.Second, func() { b.c.FailNode("node001") })

	b.s.Spawn("driver", func(p *sim.Proc) {
		rs, err := b.rm.Carve(10, 5, nil)
		if err != nil {
			t.Errorf("carve: %v", err)
			return
		}
		err = b.sv.StartTask(p, "WF", "Sim", rs, "restart.sh")
		var pl *PlacementLostError
		if !errors.As(err, &pl) {
			t.Errorf("err = %v, want PlacementLostError", err)
			return
		}
		if len(pl.Nodes) != 1 || pl.Nodes[0] != "node001" {
			t.Errorf("lost nodes = %v, want [node001]", pl.Nodes)
		}
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if b.sv.TaskRunning("WF", "Sim") {
		t.Fatal("task must not launch on a partial placement")
	}
	// The failed start must not leak the surviving half of the carve.
	if owners := b.rm.Owners(); len(owners) != 0 {
		t.Fatalf("leaked assignments: %v", owners)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(100))
	b.s.Spawn("driver", func(p *sim.Proc) {
		b.sv.Launch(p, "WF")
		rs, _ := b.rm.Carve(5, 0, nil)
		if err := b.sv.StartTask(p, "WF", "Sim", rs, ""); err == nil {
			t.Error("starting a running task should fail")
		}
		b.sv.StopTask(p, "WF", "Sim", false)
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeFailureCrashesTasksAndFreesSurvivors(t *testing.T) {
	b := newBench(t, 3)
	b.sv.Compose(&WorkflowSpec{
		ID: "MD",
		Tasks: []TaskConfig{
			{
				Spec: task.Spec{
					Name: "LAMMPS", Workflow: "MD",
					Cost: task.Cost{Work: 30 * time.Second}, TotalSteps: 1000,
				},
				Procs: 30, ProcsPerNode: 10, AutoStart: true,
			},
		},
	})
	b.s.Spawn("driver", func(p *sim.Proc) { b.sv.Launch(p, "MD") })
	b.c.FailNodeAt(time.Minute, "node001")
	if err := b.s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	inst := b.sv.Instance("MD", "LAMMPS")
	if inst.State() != task.Failed || inst.ExitCode() != 137 {
		t.Fatalf("state=%v code=%d, want Failed/137", inst.State(), inst.ExitCode())
	}
	// Status file carries the failure code for the ERRORSTATUS sensor.
	if v, err := b.env.FS.ReadVar(task.StatusPath("MD", "LAMMPS"), "exitcode"); err != nil || v != 137 {
		t.Fatalf("status exitcode = %v, %v", v, err)
	}
	// The two surviving nodes' cores are back in the pool; the dead node
	// contributes nothing.
	free := b.rm.Free()
	if free.Total() != 40 {
		t.Fatalf("free = %v (%d), want 40 on surviving nodes", free, free.Total())
	}
	if free["node001"] != 0 {
		t.Fatal("failed node should contribute no free cores")
	}
}

func TestStopTaskOnDeadTaskIsNoop(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(1))
	b.s.Spawn("driver", func(p *sim.Proc) {
		b.sv.Launch(p, "WF")
		p.Sleep(time.Minute) // task long finished
		if err := b.sv.StopTask(p, "WF", "Sim", true); err != nil {
			t.Errorf("StopTask on finished task: %v", err)
		}
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestCoresPerProcPlacement(t *testing.T) {
	b := newBench(t, 2) // DT2: 20 cores/node
	b.sv.Compose(&WorkflowSpec{
		ID: "XGC",
		Tasks: []TaskConfig{
			{
				Spec: task.Spec{
					Name: "XGC1", Workflow: "XGC",
					Cost: task.Cost{Work: 10 * time.Second}, TotalSteps: 100,
				},
				Procs: 20, ProcsPerNode: 10, CoresPerProc: 2, AutoStart: true,
			},
		},
	})
	b.s.Spawn("driver", func(p *sim.Proc) {
		if err := b.sv.Launch(p, "XGC"); err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	b.s.Run(time.Second)
	inst := b.sv.Instance("XGC", "XGC1")
	// 20 procs x 2 cores = 40 cores = both nodes fully assigned; the
	// placement records PROCESSES (10 per node), not cores.
	if inst.Placement.Procs() != 20 {
		t.Fatalf("procs = %d, want 20", inst.Placement.Procs())
	}
	if inst.Placement["node000"] != 10 || inst.Placement["node001"] != 10 {
		t.Fatalf("placement = %v", inst.Placement)
	}
	if free := b.rm.Free().Total(); free != 0 {
		t.Fatalf("free = %d, want 0 (cores fully consumed)", free)
	}
	if b.sv.CoresPerProc("XGC", "XGC1") != 2 {
		t.Fatal("CoresPerProc lookup")
	}
	if b.sv.CoresPerProc("XGC", "nope") != 1 {
		t.Fatal("CoresPerProc default")
	}
	b.s.Spawn("stopper", func(p *sim.Proc) { b.sv.StopTask(p, "XGC", "XGC1", false) })
	b.s.RunUntilIdle()
}

// TestAnyRunning: AnyRunning reads true while any task of the workflow
// has a live incarnation — one stopped task leaves it true — and false
// before launch, after the last stop and for an unknown workflow; the poll
// costs no allocation.
func TestAnyRunning(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(&WorkflowSpec{
		ID: "WF",
		Tasks: []TaskConfig{
			{Spec: task.Spec{Name: "Zed", Workflow: "WF", Cost: task.Cost{Work: time.Hour}, TotalSteps: 1},
				Procs: 2, AutoStart: true},
			{Spec: task.Spec{Name: "Abel", Workflow: "WF", Cost: task.Cost{Work: time.Hour}, TotalSteps: 1},
				Procs: 2, AutoStart: true},
		},
	})
	check := func(when string, want bool) {
		t.Helper()
		if got := b.sv.AnyRunning("WF"); got != want {
			t.Fatalf("%s: AnyRunning = %v, want %v", when, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { b.sv.AnyRunning("WF") }); n != 0 {
			t.Fatalf("%s: AnyRunning allocates %v times per call", when, n)
		}
	}
	check("before launch", false)
	if b.sv.AnyRunning("nope") {
		t.Fatal("an unknown workflow reads as running")
	}
	b.s.Spawn("driver", func(p *sim.Proc) { b.sv.Launch(p, "WF") })
	b.s.Run(time.Second)
	check("both running", true)
	b.s.Spawn("stopper", func(p *sim.Proc) { b.sv.StopTask(p, "WF", "Abel", false) })
	b.s.Run(2 * time.Second)
	check("Zed still running", true)
	b.s.Spawn("stopper", func(p *sim.Proc) { b.sv.StopTask(p, "WF", "Zed", false) })
	b.s.RunUntilIdle()
	check("both stopped", false)
}

func TestSignalTask(t *testing.T) {
	b := newBench(t, 2)
	b.sv.Compose(simpleWF(100))
	b.s.Spawn("driver", func(p *sim.Proc) {
		b.sv.Launch(p, "WF")
		p.Sleep(500 * time.Millisecond)
		if err := b.sv.SignalTask("WF", "Sim", nil); err != nil {
			t.Errorf("SignalTask: %v", err)
		}
		if err := b.sv.SignalTask("WF", "nope", nil); err == nil {
			t.Error("signal to unknown task should fail")
		}
		p.Sleep(2 * time.Second)
		b.sv.StopTask(p, "WF", "Sim", false)
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndResourcePassthrough(t *testing.T) {
	// 5 cluster nodes with only 3 allocated, so extra nodes can be
	// requested on demand.
	s := sim.New(1)
	c := cluster.Deepthought2(s, 5)
	reg := obs.NewRegistry()
	rm := resmgr.New(c, reg)
	if _, err := rm.Allocate(3); err != nil {
		t.Fatal(err)
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	b := &bench{s: s, c: c, rm: rm, env: env, sv: New(env, rm, reg), reg: reg}
	wf := simpleWF(10)
	b.sv.Compose(wf)
	if b.sv.env != b.env || b.sv.Manager() != b.rm {
		t.Fatal("accessors broken")
	}
	if got := b.sv.Workflow("WF"); got != wf {
		t.Fatal("Workflow broken")
	}
	if b.sv.Workflow("nope") != nil {
		t.Fatal("missing lookups should be nil")
	}
	// Allocate extra nodes, release one.
	ids, err := b.rm.Allocate(2)
	if err != nil || len(ids) != 2 {
		t.Fatalf("Allocate = %v, %v", ids, err)
	}
	if err := b.sv.ReleaseResources(ids[:1]); err != nil {
		t.Fatal(err)
	}
	if got := b.rm.AllocatedNodes(); len(got) != 4 { // 3 initial + 2 requested - 1 released
		t.Fatalf("allocated = %v", got)
	}
	// Composing twice is rejected.
	if err := b.sv.Compose(wf); err == nil {
		t.Fatal("double compose should fail")
	}
}

// TestComposeRejectsOutputPattern: a task whose OutputPattern is not one
// %d or %0Nd verb fails Compose, and the workflow stays uncomposed.
func TestComposeRejectsOutputPattern(t *testing.T) {
	b := newBench(t, 2)
	wf := simpleWF(1)
	wf.Tasks[0].Spec.OutputEvery = 1
	wf.Tasks[0].Spec.OutputPattern = "out/sim.%s.bp"
	if err := b.sv.Compose(wf); err == nil {
		t.Fatal("Compose accepted an output pattern with a string verb")
	}
	if b.sv.Workflow("WF") != nil || b.sv.Instance("WF", "Sim") != nil {
		t.Fatal("a rejected workflow was registered")
	}
	wf.Tasks[0].Spec.OutputPattern = "out/sim.%05d.bp"
	if err := b.sv.Compose(wf); err != nil {
		t.Fatalf("Compose after the fix: %v", err)
	}
}
