package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/task"
)

// TestLAMMPSSummitReproducesFigure11: a node failure 10 minutes in kills
// the whole workflow; DYFLOW restarts every task excluding the failed node
// with a sub-second plan, and LAMMPS resumes from checkpoint step 412.
func TestLAMMPSSummitReproducesFigure11(t *testing.T) {
	res, err := RunLAMMPS(1, apps.Summit, true)
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
	// Every task failed with a signal exit code, then restarted.
	for _, name := range []string{"LAMMPS", "CNA_Calc", "RDF_Calc", "CS_Calc"} {
		ivs := res.W.Rec.TaskIntervals(apps.LAMMPSWorkflowID, name)
		if len(ivs) != 2 {
			t.Fatalf("%s incarnations = %d, want 2 (crash + restart)", name, len(ivs))
		}
		if ivs[0].Final != task.Failed || ivs[0].ExitCode != 137 {
			t.Fatalf("%s first incarnation = %v/%d, want Failed/137", name, ivs[0].Final, ivs[0].ExitCode)
		}
		// The restart excludes the failed node.
		inst := res.W.SV.Instance(apps.LAMMPSWorkflowID, name)
		if inst.Placement[res.FailedNode] != 0 {
			t.Fatalf("%s restarted on the failed node: %v", name, inst.Placement)
		}
	}
	// One recovery plan, sub-second response (nothing to drain: all dead).
	if len(res.W.Plans()) != 1 {
		t.Fatalf("plans = %d, want 1 recovery round", len(res.W.Plans()))
	}
	if res.RecoveryResponse > time.Second {
		t.Fatalf("recovery response = %v, want sub-second (paper ~0.2s)", res.RecoveryResponse)
	}
	// LAMMPS resumed from checkpoint 412 and repeated the lost steps.
	if res.ResumeStep != 412 {
		t.Fatalf("resume step = %d, want 412", res.ResumeStep)
	}

	// EXPERIMENTS.md's Figure 11 table quotes this run.
	requireTableQuotes(t, "## Figure 11", "## §4.6", LAMMPSReport(res))
	if want := fmt.Sprintf("makespan %v", res.Makespan.Round(time.Second)); !strings.Contains(experimentsSection(t, "## Figure 11", "## §4.6"), want) {
		t.Errorf("EXPERIMENTS.md, Figure 11: no %q", want)
	}
}

// TestLAMMPSBaselineStaysDown: without DYFLOW the failed workflow never
// recovers.
func TestLAMMPSBaselineStaysDown(t *testing.T) {
	res, err := RunLAMMPS(1, apps.Summit, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("baseline must not complete after the node failure")
	}
	inst := res.W.SV.Instance(apps.LAMMPSWorkflowID, "LAMMPS")
	if inst.State() != task.Failed {
		t.Fatalf("LAMMPS state = %v, want Failed", inst.State())
	}
	if n := len(res.W.Rec.TaskIntervals(apps.LAMMPSWorkflowID, "LAMMPS")); n != 1 {
		t.Fatalf("incarnations = %d, want 1 (no restart)", n)
	}
}
