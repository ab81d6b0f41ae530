package trace

import (
	"testing"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

func TestOnCompleteHookFiresOnExecuted(t *testing.T) {
	r := New(obs.NewRegistry())
	var got []Span
	r.SetOnComplete(func(sp Span) {
		// Re-entrancy must be safe: the hook runs unlocked.
		_, _ = r.span(sp.Seq)
		got = append(got, sp)
	})

	r.Suggested(1, "WF", "pol", "INC", "PACE", 1, 2, 3)
	r.Received(1, 4)
	r.Planned(1, 5)
	if len(got) != 0 {
		t.Fatalf("hook fired before Executed: %v", got)
	}
	r.Executed(1, 6)
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	sp := got[0]
	if sp.Seq != 1 || sp.ExecutedAt != sim.Time(6) || !sp.Complete() {
		t.Fatalf("hook got incomplete span copy: %+v", sp)
	}

	// Executed for an unknown span must not fire the hook.
	r.Executed(7, 7)
	if len(got) != 1 {
		t.Fatalf("hook fired for unknown span")
	}

	// Clearing the hook stops delivery.
	r.SetOnComplete(nil)
	r.Suggested(2, "WF", "pol", "INC", "PACE", 1, 2, 3)
	r.Executed(2, 9)
	if len(got) != 1 {
		t.Fatalf("cleared hook still fired")
	}
}
