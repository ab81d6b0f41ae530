package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/specs"
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

// TestOrchestratorKillKeepsTimeline: the flight recorder is the world's,
// so a chaos campaign whose orchestrator is killed twice and restored from
// its checkpoint each time ends with the uninterrupted run's Perfetto
// timeline, byte for byte — every suggestion span and every actuation op,
// those from before each kill included — on both machines and seeds 1-3,
// as `dyflow-exp -orch-kills 2 chaos` runs them.
func TestOrchestratorKillKeepsTimeline(t *testing.T) {
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		for seed := int64(1); seed <= 3; seed++ {
			timeline := func(kills int) []byte {
				opts := DefaultChaosOptions()
				opts.OrchKills = kills
				res, err := RunChaos(seed, m, opts)
				if err != nil {
					t.Fatalf("%v seed %d, %d kills: %v", m, seed, kills, err)
				}
				defer res.W.Close()
				if res.OrchKills != kills {
					t.Fatalf("%v seed %d: %d orchestrator kills fired, want %d", m, seed, res.OrchKills, kills)
				}
				doc, err := perfettoJSON(res.W)
				if err != nil {
					t.Fatal(err)
				}
				return doc
			}
			want, got := timeline(0), timeline(2)
			if !bytes.Equal(got, want) {
				t.Errorf("%v seed %d: the timeline of a run killed twice (%d bytes) differs from the uninterrupted run's (%d bytes)",
					m, seed, len(got), len(want))
			}
		}
	}
}

// TestOrchestratorKillOverSharedDocs: a chaos run whose orchestrator is
// killed twice, its successors built over the compiled document the
// run's Docs shares with every other job, ends with the uninterrupted
// run's timeline, and the shared document still equals a fresh compile.
func TestOrchestratorKillOverSharedDocs(t *testing.T) {
	var d Docs
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		timeline := func(kills int) []byte {
			opts := DefaultChaosOptions()
			opts.OrchKills = kills
			res, err := RunChaosVariant(1, m, opts, Variant{docs: &d})
			if err != nil {
				t.Fatalf("%v, %d kills: %v", m, kills, err)
			}
			defer res.W.Close()
			if res.OrchKills != kills {
				t.Fatalf("%v: %d orchestrator kills fired, want %d", m, res.OrchKills, kills)
			}
			if want, _ := d.compile(specs.GrayScott(m), true); res.W.orchCfg != want {
				t.Fatalf("%v: the last orchestrator runs on its own compile, not the shared document", m)
			}
			doc, err := perfettoJSON(res.W)
			if err != nil {
				t.Fatal(err)
			}
			return doc
		}
		want, got := timeline(0), timeline(2)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: the timeline of a run killed twice over the shared document (%d bytes) differs from the uninterrupted run's (%d bytes)",
				m, len(got), len(want))
		}
		shared, _ := d.compile(specs.GrayScott(m), true)
		if fresh, err := compileDoc(docKey{specs.GrayScott(m), true}); err != nil || !reflect.DeepEqual(shared, fresh) {
			t.Errorf("%v: the shared chaos document no longer equals a fresh compile (%v)", m, err)
		}
	}
}
