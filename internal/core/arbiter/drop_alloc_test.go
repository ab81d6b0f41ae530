package arbiter

import (
	"testing"
	"time"

	"dyflow/internal/core/decision"
	"dyflow/internal/sim"
)

// TestWarmDropAllocatesNothing: once the engine is warm, dropping a known
// suggestion allocates nothing, the stamping of its span included —
// during warm-up and in a settle window (the engine loop reads the batch
// and drops it), as stale, and as the only suggestion of a round whose
// plan comes out empty (the round screens and plans it).
func TestWarmDropAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rule := decision.NewRule("W", "P", "START", "B", []string{"B"}, nil)
	for _, guard := range []string{"warmup", "settle"} {
		cfg := Config{WarmupDelay: time.Hour, GatherWindow: time.Second}
		if guard == "settle" {
			cfg.WarmupDelay = 0
		}
		r := newEngineRig(t, cfg)
		r.eng.settleUntil = 2 * time.Hour
		r.tr.Suggested(1, "W", "P", "START", "PACE", 0, 0, 0)
		// The round has no home, so its release does nothing and it is
		// sent again as it is.
		batch := &decision.Round{Sugs: []decision.Suggestion{{Rule: rule, Seq: 1}}}
		drop := func() {
			r.dec.Send("arbiter", batch)
			if err := r.s.Run(r.s.Now() + time.Second); err != nil {
				t.Fatal(err)
			}
		}
		drop()
		if n := testing.AllocsPerRun(100, drop); n != 0 {
			t.Errorf("a warm %s drop allocates %v times, want 0", guard, n)
		}
		if sp, _ := spanOf(r.tr, 1); sp.Dropped != guard {
			t.Errorf("span = %+v, want dropped as %s", sp, guard)
		}
		if got := r.tr.Counter("arbiter.discarded_batches"); got != 102 {
			t.Errorf("discarded batches = %d, want 102", got)
		}
	}

	for _, c := range []struct {
		reason string
		b      TaskState
	}{
		{"stale", TaskState{Running: true, Procs: 10, StartedAt: 30 * time.Second}},
		{"empty-plan", TaskState{Running: true, Procs: 10}},
	} {
		r := newEngineRig(t, Config{})
		r.view.tasks["W"]["B"] = c.b
		r.tr.Suggested(1, "W", "P", "START", "PACE", 0, 0, 0)
		batch := []decision.Suggestion{{Rule: rule, Seq: 1, DecidedAt: int64(time.Second)}}
		var allocs float64
		r.s.Spawn("driver", func(p *sim.Proc) {
			if err := p.Sleep(time.Minute); err != nil {
				t.Error(err)
				return
			}
			round := func() {
				if recs := r.eng.Arbitrate(p, batch); len(recs) != 0 {
					t.Errorf("round executed %+v, want the suggestion dropped", recs)
				}
			}
			round()
			allocs = testing.AllocsPerRun(100, round)
		})
		if err := r.s.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("a warm %s drop allocates %v times, want 0", c.reason, allocs)
		}
		if sp, _ := spanOf(r.tr, 1); sp.Dropped != c.reason || sp.ReceivedAt == 0 {
			t.Errorf("span = %+v, want received and dropped as %s", sp, c.reason)
		}
	}
}
