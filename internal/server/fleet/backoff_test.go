package fleet

import (
	"context"
	"testing"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/trace"
)

// TestBackoffJitterBounds: every delay falls in (0, ceiling], and the
// ceiling doubles per attempt until it saturates at the cap.
func TestBackoffJitterBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	b := newBackoff(base, max, 42)
	wantCeil := base
	for i := 0; i < 12; i++ {
		ceil := b.cur
		if ceil != wantCeil {
			t.Fatalf("attempt %d: ceiling = %v, want %v", i, ceil, wantCeil)
		}
		d := b.next()
		if d <= 0 || d > ceil {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", i, d, ceil)
		}
		if wantCeil < max {
			wantCeil *= 2
			if wantCeil > max {
				wantCeil = max
			}
		}
	}
	if b.cur != max {
		t.Fatalf("ceiling did not saturate at cap: %v != %v", b.cur, max)
	}
}

// TestBackoffResetOnSuccess: reset returns the ceiling to base, the
// claim loop's reset-on-success discipline.
func TestBackoffResetOnSuccess(t *testing.T) {
	b := newBackoff(10*time.Millisecond, time.Second, 7)
	for i := 0; i < 8; i++ {
		b.next()
	}
	if b.cur != time.Second {
		t.Fatalf("ceiling before reset = %v, want 1s", b.cur)
	}
	b.reset()
	if b.cur != 10*time.Millisecond {
		t.Fatalf("ceiling after reset = %v, want base", b.cur)
	}
	if d := b.next(); d <= 0 || d > 10*time.Millisecond {
		t.Fatalf("post-reset delay %v outside (0, base]", d)
	}
}

// TestBackoffSeededReproducible: the same seed yields the same jitter
// sequence (chaos sweeps replay bit-identically), different seeds
// decorrelate.
func TestBackoffSeededReproducible(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := newBackoff(time.Millisecond, 64*time.Millisecond, seed)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = b.next()
		}
		return out
	}
	a, b2 := seq(3), seq(3)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("same seed diverges at %d: %v vs %v", i, a[i], b2[i])
		}
	}
	c := seq(4)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestSleepCtxCancellation: cancellation mid-backoff returns false
// promptly; an undisturbed sleep returns true.
func TestSleepCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if sleepCtx(ctx, 10*time.Second) {
		t.Fatal("canceled sleep reported full duration elapsed")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("canceled sleep blocked %v", time.Since(start))
	}
	if !sleepCtx(context.Background(), time.Millisecond) {
		t.Fatal("undisturbed sleep reported cancellation")
	}
}

// TestSpanBufferCapsAndCounts: the span buffer drops oldest spans past
// its cap and counts every drop.
func TestSpanBufferCapsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	drops := reg.Counter("dyflow_worker_span_drops_total", "test").With()
	sb := &spanBuffer{cap: 4, drops: drops}
	mk := func(seq int) trace.SpanRecord { return trace.Span{Workflow: "W", Policy: "P", Seq: seq}.Record() }

	for i := 0; i < 10; i++ {
		sb.add(mk(i))
	}
	got := sb.take()
	if len(got) != 4 {
		t.Fatalf("buffer holds %d spans, cap 4", len(got))
	}
	if got[0].ID != "W/P#6" || got[3].ID != "W/P#9" {
		t.Fatalf("expected oldest dropped, newest kept: %+v", got)
	}
	if v, _ := reg.Value("dyflow_worker_span_drops_total"); v != 6 {
		t.Fatalf("span drops = %v, want 6", v)
	}
}
