package apps

import (
	"testing"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/fsim"
	"dyflow/internal/obs"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

func launchWorld(t *testing.T, m Machine, nodes int, wf *wms.WorkflowSpec) (*sim.Sim, *wms.Savanna) {
	t.Helper()
	s := sim.New(1)
	var c *cluster.Cluster
	if m == Summit {
		c = cluster.Summit(s, nodes)
	} else {
		c = cluster.Deepthought2(s, nodes)
	}
	reg := obs.NewRegistry()
	rm := resmgr.New(c, reg)
	if _, err := rm.Allocate(nodes); err != nil {
		t.Fatal(err)
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	sv := wms.New(env, rm, reg)
	if err := sv.Compose(wf); err != nil {
		t.Fatal(err)
	}
	s.Spawn("driver", func(p *sim.Proc) {
		if err := sv.Launch(p, wf.ID); err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	return s, sv
}

func TestXGCStepRatio(t *testing.T) {
	for _, m := range []Machine{Summit, Deepthought2} {
		cfg := XGCConfigFor(m)
		ratio := float64(cfg.XGC1Step) / float64(cfg.XGCaStep)
		if ratio < 2.4 || ratio > 2.6 {
			t.Errorf("%v: XGC1/XGCa step ratio = %.2f, want ~2.5 (paper)", m, ratio)
		}
	}
}

func TestXGCFillsNodesExactly(t *testing.T) {
	cfg := XGCConfigFor(Summit)
	if cfg.ProcsPerNode*cfg.CoresPerProc != 42 {
		t.Fatalf("XGC per-node footprint = %d, want all 42 Summit cores", cfg.ProcsPerNode*cfg.CoresPerProc)
	}
	dt2 := XGCConfigFor(Deepthought2)
	if dt2.ProcsPerNode*dt2.CoresPerProc != 20 {
		t.Fatalf("XGC DT2 per-node footprint = %d, want all 20 cores", dt2.ProcsPerNode*dt2.CoresPerProc)
	}
}

func TestXGCWorkflowRuns(t *testing.T) {
	cfg := XGCConfigFor(Summit)
	wf := XGCWorkflow(Summit)
	s, sv := launchWorld(t, Summit, cfg.Nodes, wf)
	var ended time.Duration
	sv.OnEvent(func(ev wms.Event) {
		if ev.Kind == wms.TaskEnded && ev.Task == "XGC1" {
			ended = ev.At
		}
	})
	if err := s.Run(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	inst := sv.Instance(XGCWorkflowID, "XGC1")
	if inst.State() != task.Completed || inst.StepsDone() != cfg.StepsPerRun {
		t.Fatalf("XGC1 = %v after %d steps", inst.State(), inst.StepsDone())
	}
	// One run of 100 steps at ~5s/step completes in ~8.5 min.
	if ended < 8*time.Minute || ended > 9*time.Minute {
		t.Fatalf("XGC1 run length = %v, want ~8.5 min", ended)
	}
	// XGCA is not auto-started.
	if sv.Instance(XGCWorkflowID, "XGCA") != nil {
		t.Fatal("XGCa must wait for a policy start")
	}
}

func TestGrayScottTable2PacksNodes(t *testing.T) {
	cfg := GrayScottConfigFor(Summit)
	perNode := cfg.GrayScott.ProcsPerNode + cfg.Isosurface.ProcsPerNode +
		cfg.Rendering.ProcsPerNode + cfg.FFT.ProcsPerNode + cfg.PDFCalc.ProcsPerNode
	if perNode != 42 {
		t.Fatalf("per-node total = %d, want 42 (Table 2 packs Summit nodes)", perNode)
	}
	dt2 := GrayScottConfigFor(Deepthought2)
	perNode = dt2.GrayScott.ProcsPerNode + dt2.Isosurface.ProcsPerNode +
		dt2.Rendering.ProcsPerNode + dt2.FFT.ProcsPerNode + dt2.PDFCalc.ProcsPerNode
	if perNode != 20 {
		t.Fatalf("DT2 per-node total = %d, want 20", perNode)
	}
}

func TestGrayScottIsosurfaceCalibration(t *testing.T) {
	// The Summit Isosurface cost must land the three operating points of
	// Figure 8: >36 s at 20 procs, >36 s at 40, inside [24, 36] at 60.
	wf := GrayScottWorkflow(Summit)
	iso := taskConfig(t, wf, "Isosurface")
	s := sim.New(1)
	at := func(procs int) float64 {
		c := iso.Spec.Cost
		c.Noise = 0
		return c.StepTime(s.Rand(), procs, 0).Seconds()
	}
	if v := at(20); v <= 36 {
		t.Fatalf("pace@20 = %.1f, want > 36", v)
	}
	if v := at(40); v <= 36 {
		t.Fatalf("pace@40 = %.1f, want > 36 (second adaptation must fire)", v)
	}
	if v := at(60); v < 24 || v > 36 {
		t.Fatalf("pace@60 = %.1f, want inside [24, 36]", v)
	}
}

func TestGrayScottDT2Calibration(t *testing.T) {
	wf := GrayScottWorkflow(Deepthought2)
	iso := taskConfig(t, wf, "Isosurface")
	s := sim.New(1)
	at := func(procs int) float64 {
		c := iso.Spec.Cost
		c.Noise = 0
		return c.StepTime(s.Rand(), procs, 0).Seconds()
	}
	if v := at(20); v <= 42 {
		t.Fatalf("pace@20 = %.1f, want > 42", v)
	}
	if v := at(60); v < 28 || v > 42 {
		t.Fatalf("pace@60 = %.1f, want inside [28, 42] (single adaptation)", v)
	}
}

func TestLAMMPSCheckpointHits412(t *testing.T) {
	// With the Summit step time and checkpoint interval, the failure at 10
	// minutes must leave the last checkpoint at step 412.
	cfg := LAMMPSConfigFor(Summit)
	startup := 2 * time.Second
	stepsByFailure := int((10*time.Minute - startup) / cfg.StepTime)
	lastCkpt := (stepsByFailure / LAMMPSCheckpointEvery) * LAMMPSCheckpointEvery
	if lastCkpt != 412 {
		t.Fatalf("last checkpoint before failure = %d, want 412", lastCkpt)
	}
}

func TestLAMMPSWorkflowRuns(t *testing.T) {
	cfg := LAMMPSConfigFor(Deepthought2)
	wf := LAMMPSWorkflow(Deepthought2)
	s, sv := launchWorld(t, Deepthought2, cfg.Nodes, wf)
	if err := s.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	md := sv.Instance(LAMMPSWorkflowID, "LAMMPS")
	if md.State() != task.Completed || md.StepsDone() != cfg.TotalSteps {
		t.Fatalf("LAMMPS = %v after %d steps", md.State(), md.StepsDone())
	}
	// Each analysis processed one record per stride.
	for _, name := range []string{"CNA_Calc", "RDF_Calc", "CS_Calc"} {
		ana := sv.Instance(LAMMPSWorkflowID, name)
		if ana.State() != task.Completed {
			t.Fatalf("%s = %v", name, ana.State())
		}
		if ana.StepsDone() != cfg.AnalysisSteps {
			t.Fatalf("%s steps = %d, want %d", name, ana.StepsDone(), cfg.AnalysisSteps)
		}
	}
}

func TestGrayScottWorkflowGatedBySlowestAnalysis(t *testing.T) {
	cfg := GrayScottConfigFor(Summit)
	wf := GrayScottWorkflow(Summit)
	s, sv := launchWorld(t, Summit, cfg.Nodes, wf)
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	gs := sv.Instance(GrayScottWorkflowID, "GrayScott")
	// Gray-Scott alone computes ~10 s/step but Isosurface (~45 s) gates it
	// through backpressure: after 10 minutes it has done ~13 steps, far
	// fewer than the ~60 it would do standalone.
	if gs.StepsDone() > 20 {
		t.Fatalf("GrayScott did %d steps in 10 min; backpressure should gate it to ~13", gs.StepsDone())
	}
	if gs.StepsDone() < 8 {
		t.Fatalf("GrayScott did only %d steps; pipeline stalled", gs.StepsDone())
	}
}

// taskConfig returns the composed config of the named task.
func taskConfig(t *testing.T, wf *wms.WorkflowSpec, name string) *wms.TaskConfig {
	t.Helper()
	for i := range wf.Tasks {
		if wf.Tasks[i].Spec.Name == name {
			return &wf.Tasks[i]
		}
	}
	t.Fatalf("workflow %s has no task %s", wf.ID, name)
	return nil
}
