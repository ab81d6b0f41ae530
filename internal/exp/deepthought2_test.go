package exp

import (
	"os"
	"testing"
	"time"

	"dyflow/internal/apps"
)

// TestGrayScottDeepthought2SingleAdaptation: on the slower machine the
// paper reports a single event — Isosurface restarted acquiring resources
// from both PDF_Calc and FFT_Calc, Rendering restarted due to dependency,
// plan+execution 87 s.
func TestGrayScottDeepthought2SingleAdaptation(t *testing.T) {
	res, err := RunGrayScott(1, apps.Deepthought2, true)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DYFLOW_DEBUG") != "" {
		res.W.Rec.Gantt(os.Stderr, 100)
		res.W.Rec.PlanSummary(os.Stderr)
	}
	if !res.Completed {
		t.Fatalf("workflow did not complete (makespan %v)", res.Makespan)
	}
	if len(res.W.Plans()) != 1 {
		res.W.Rec.PlanSummary(os.Stderr)
		t.Fatalf("plans = %d, want 1", len(res.W.Plans()))
	}
	// One adaptation: Isosurface 20 -> 60, victims PDF_Calc and FFT.
	if len(res.IsoSizes) != 2 || res.IsoSizes[0] != 20 || res.IsoSizes[1] != 60 {
		t.Fatalf("Isosurface sizes = %v, want [20 60]", res.IsoSizes)
	}
	vm := map[string]bool{}
	for _, v := range res.Victims[0] {
		vm[v] = true
	}
	if !vm["PDF_Calc"] || !vm["FFT"] || len(res.Victims[0]) != 2 {
		t.Fatalf("victims = %v, want PDF_Calc and FFT", res.Victims[0])
	}
	// Rendering restarted alongside.
	if n := len(res.W.Rec.TaskIntervals(apps.GrayScottWorkflowID, "Rendering")); n != 2 {
		t.Fatalf("Rendering incarnations = %d, want 2", n)
	}
	// Response in the tens of seconds (paper: 87 s).
	resp := res.W.Plans()[0].ResponseTime()
	if resp < 20*time.Second || resp > 4*time.Minute {
		t.Fatalf("response = %v, want tens of seconds (paper 87 s)", resp)
	}
	// Post-fix pace in the DT2 band [28, 42].
	if res.PaceAfter < 28 || res.PaceAfter > 42 {
		t.Fatalf("pace after = %.1f, want inside [28, 42]", res.PaceAfter)
	}
}

// TestXGCDeepthought2: the alternation also holds on Deepthought2 with
// proportionally larger responses (paper: 0.8-0.2 s starts, 11 s XGC1
// start, 24 s switch, 42 s stop).
func TestXGCDeepthought2(t *testing.T) {
	res, err := RunXGC(1, apps.Deepthought2)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DYFLOW_DEBUG") != "" {
		res.W.Rec.Gantt(os.Stderr, 100)
		res.W.Rec.PlanSummary(os.Stderr)
	}
	if res.FinalStep <= 500 || res.FinalStep > 520 {
		t.Fatalf("final step = %d, want just past 500", res.FinalStep)
	}
	if res.XGCaStarts != 3 {
		t.Fatalf("XGCa starts = %d, want 3", res.XGCaStarts)
	}
	// The stop response drains one XGCa step (8 s on DT2), so responses
	// run larger than on Summit.
	for _, ev := range res.Events {
		if ev.Kind == "stop" && (ev.Response < time.Second || ev.Response > 20*time.Second) {
			t.Fatalf("stop response = %v, want several seconds on DT2", ev.Response)
		}
	}
}

// TestLAMMPSDeepthought2 covers the failure-recovery variant on the
// smaller machine (paper: response 0.4 s).
func TestLAMMPSDeepthought2(t *testing.T) {
	res, err := RunLAMMPS(1, apps.Deepthought2, true)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DYFLOW_DEBUG") != "" {
		res.W.Rec.Gantt(os.Stderr, 100)
		res.W.Rec.PlanSummary(os.Stderr)
	}
	if !res.Completed {
		t.Fatalf("workflow did not complete after recovery (makespan %v)", res.Makespan)
	}
	if len(res.W.Plans()) != 1 {
		t.Fatalf("plans = %d, want 1", len(res.W.Plans()))
	}
	if res.RecoveryResponse > time.Second {
		t.Fatalf("recovery response = %v, want sub-second", res.RecoveryResponse)
	}
	inst := res.W.SV.Instance(apps.LAMMPSWorkflowID, "LAMMPS")
	if inst.Placement[res.FailedNode] != 0 {
		t.Fatalf("restart used the failed node: %v", inst.Placement)
	}
}
