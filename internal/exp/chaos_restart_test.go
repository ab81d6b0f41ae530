package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
)

// renderChaos reduces a campaign to its golden surface: the full Gantt
// (every task incarnation, placement size, and failure) plus the plan
// summary (every arbitration round with its response decomposition).
func renderChaos(t *testing.T, res *ChaosResult) string {
	t.Helper()
	var buf bytes.Buffer
	res.W.Rec.Gantt(&buf, 120)
	res.W.Rec.PlanSummary(&buf)
	return buf.String()
}

// A chaos campaign whose orchestrator is torn down twice mid-run and
// restored from its checkpoint each time must converge to a byte-identical
// plan/trace sequence as the uninterrupted run with the same seed: the
// checkpoint captures everything decision-relevant, and restore loses
// nothing.
func TestOrchestratorKillRestoreDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos campaign is slow")
	}
	const seed = 1
	opts := DefaultChaosOptions()
	// The campaign's last arbitration round drains tasks gracefully all the
	// way to the end of the run, so the arbiter never goes quiescent after
	// ~21m; keep the kill window clear of that tail. Shared by both runs, so
	// the node-kill schedule stays identical.
	opts.KillEnd = 20 * time.Minute

	base, err := RunChaos(seed, apps.Summit, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		var sb strings.Builder
		base.Write(&sb)
		t.Fatalf("base run did not converge:\n%s", sb.String())
	}

	killed := opts
	killed.OrchKills = 2
	kres, err := RunChaos(seed, apps.Summit, killed)
	if err != nil {
		t.Fatal(err)
	}
	if kres.OrchKills != 2 {
		t.Fatalf("orchestrator kills fired = %d, want 2", kres.OrchKills)
	}
	if !kres.Converged {
		var sb strings.Builder
		kres.Write(&sb)
		t.Fatalf("killed run did not converge:\n%s", sb.String())
	}

	want, got := renderChaos(t, base), renderChaos(t, kres)
	if want != got {
		t.Fatalf("killed-and-restored run diverged from uninterrupted run:\n--- base ---\n%s\n--- killed ---\n%s", want, got)
	}
	if base.End != kres.End || base.Rounds != kres.Rounds || base.RequeuedTasks != kres.RequeuedTasks {
		t.Fatalf("counters diverged: base end=%v rounds=%d requeued=%d, killed end=%v rounds=%d requeued=%d",
			base.End, base.Rounds, base.RequeuedTasks, kres.End, kres.Rounds, kres.RequeuedTasks)
	}
}
