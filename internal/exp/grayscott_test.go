package exp

import (
	"os"
	"testing"

	"dyflow/internal/apps"
	"dyflow/internal/core/spec"
	"dyflow/specs"
)

// TestGrayScottDocumentsMatchThresholds: the INC_ON_PACE and DEC_ON_PACE
// thresholds of each machine's Gray-Scott document are gsThresholds, the
// numbers the Figure 8/9 and §4.4 reports judge pace by.
func TestGrayScottDocumentsMatchThresholds(t *testing.T) {
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		cfg, err := spec.CompileString(specs.GrayScott(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		inc, dec := gsThresholds(m)
		for id, want := range map[string]float64{"INC_ON_PACE": inc, "DEC_ON_PACE": dec} {
			p := cfg.Policies[id]
			if p == nil {
				t.Fatalf("%v: the Gray-Scott document has no %s policy", m, id)
			}
			if p.Threshold != want {
				t.Errorf("%v: %s threshold = %g, gsThresholds says %g", m, id, p.Threshold, want)
			}
		}
	}
}

// TestGrayScottSummitReproducesFigure8 checks the headline shape of the
// paper's under-provisioning experiment: two adaptations growing
// Isosurface 20 -> 40 -> 60, resources victimized from PDF_Calc then FFT,
// Rendering restarted alongside each time, and the post-adaptation pace
// inside the desired interval.
func TestGrayScottSummitReproducesFigure8(t *testing.T) {
	res, err := RunGrayScott(1, apps.Summit, true)
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
	if len(res.W.Plans()) != 2 {
		res.W.Rec.PlanSummary(os.Stderr)
		t.Fatalf("plans = %d, want 2 adaptations", len(res.W.Plans()))
	}
	// Isosurface grows 20 -> 40 -> 60.
	want := []int{20, 40, 60}
	if len(res.IsoSizes) != 3 {
		t.Fatalf("Isosurface incarnations = %v, want %v", res.IsoSizes, want)
	}
	for i := range want {
		if res.IsoSizes[i] != want[i] {
			t.Fatalf("Isosurface sizes = %v, want %v", res.IsoSizes, want)
		}
	}
	// Victims: PDF_Calc then FFT.
	if len(res.Victims) != 2 || len(res.Victims[0]) != 1 || res.Victims[0][0] != "PDF_Calc" {
		t.Fatalf("first-plan victims = %v, want [PDF_Calc]", res.Victims)
	}
	if len(res.Victims[1]) != 1 || res.Victims[1][0] != "FFT" {
		t.Fatalf("second-plan victims = %v, want [FFT]", res.Victims)
	}
	// Rendering restarted with each plan: 3 incarnations, all at 20 procs.
	rend := res.W.Rec.TaskIntervals(apps.GrayScottWorkflowID, "Rendering")
	if len(rend) != 3 {
		t.Fatalf("Rendering incarnations = %d, want 3", len(rend))
	}
	for _, iv := range rend {
		if iv.Procs != 20 {
			t.Fatalf("Rendering procs = %d, want 20 (dependency restart keeps size)", iv.Procs)
		}
	}
	// GrayScott itself is never disturbed.
	if gs := res.W.Rec.TaskIntervals(apps.GrayScottWorkflowID, "GrayScott"); len(gs) != 1 {
		t.Fatalf("GrayScott incarnations = %d, want 1", len(gs))
	}
	// Pace drops from above the ceiling into the desired interval.
	if res.PaceBefore <= 36 {
		t.Fatalf("pace before = %.1f, want > 36 (under-provisioned)", res.PaceBefore)
	}
	if res.PaceAfter < 24 || res.PaceAfter > 36 {
		t.Fatalf("pace after = %.1f, want inside [24, 36]", res.PaceAfter)
	}

	// EXPERIMENTS.md's Figures 8 & 9 table quotes this run.
	base, err := RunGrayScott(1, apps.Summit, false)
	if err != nil {
		t.Fatal(err)
	}
	requireTableQuotes(t, "## Figures 8 & 9", "## Figure 1", GrayScottReport(res, base))
}

// TestGrayScottBaselineOverrunsLimit: without DYFLOW the run exceeds the
// 30-minute allocation (the paper reports needing 10-12%% extra).
func TestGrayScottBaselineOverrunsLimit(t *testing.T) {
	res, err := RunGrayScott(1, apps.Summit, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("baseline did not finish within the horizon (makespan %v)", res.Makespan)
	}
	if res.Makespan <= res.TimeLimit {
		t.Fatalf("baseline makespan %v within limit %v; should overrun", res.Makespan, res.TimeLimit)
	}
	over := float64(res.Makespan-res.TimeLimit) / float64(res.TimeLimit)
	if over > 0.6 {
		t.Fatalf("baseline overrun = %.0f%%, want a modest overrun (paper: 10-12%%)", over*100)
	}
}
