package trace

import (
	"runtime"
	"testing"

	"dyflow/internal/obs"
)

// TestSpanLogKeepsSpansInPlace: the recorder holds spans as values in
// chunks it never reallocates, and finds each by its Seq. A span recorded
// first is at the same address after a thousand more; every span is found
// by its number with one index; a repeated number opens none.
func TestSpanLogKeepsSpansInPlace(t *testing.T) {
	r := New(obs.NewRegistry())
	r.Suggested(1, "W", "P", "ADDCPU", "PACE", 1, 2, 3)
	first := r.spans.at(0)
	for seq := 2; seq <= 1000; seq++ {
		r.Suggested(seq, "W", "P", "ADDCPU", "PACE", 1, 2, 3)
	}
	if r.spans.at(0) != first {
		t.Fatal("recording spans moved the first one")
	}
	r.Executed(1, 9)
	if first.ExecutedAt != 9 {
		t.Fatalf("span 1 = %+v, want it stamped in place", *first)
	}
	for seq := 1; seq <= 1000; seq++ {
		if sp, ok := r.span(seq); !ok || sp.Seq != seq || sp.ID() != SpanID("W", "P", seq) {
			t.Fatalf("Span(%d) = %+v, %v", seq, sp, ok)
		}
	}
	if r.spans.moved != nil {
		t.Fatalf("consecutive spans were indexed out of order: %v", r.spans.moved)
	}
	for _, seq := range []int{0, -1, 5, 1000} {
		r.Suggested(seq, "W", "P", "ADDCPU", "PACE", 0, 0, 0)
	}
	if n := r.spans.n; n != 1000 {
		t.Fatalf("%d spans after repeated numbers, want 1000", n)
	}
	if _, ok := r.span(1001); ok {
		t.Fatal("found a span no suggestion opened")
	}
	n := 0
	r.VisitSpans(func(sp *Span) {
		if n++; sp.Seq != n {
			t.Fatalf("visit %d saw span %d", n, sp.Seq)
		}
	})
	if n != 1000 {
		t.Fatalf("visited %d spans, want 1000", n)
	}
}

// TestSpanLogFindsSpansOutOfOrder: numbers that do not follow the last
// span — a log that starts past 1, a gap, a lower number — are all opened
// and stamped, and a repeated one still opens none.
func TestSpanLogFindsSpansOutOfOrder(t *testing.T) {
	r := New(obs.NewRegistry())
	r.Suggested(7, "W", "P", "", "", 0, 0, 0)
	r.Suggested(9, "W", "P", "", "", 0, 0, 0)
	order := []int{8, 20, 10, 3, 21, 1, 22}
	for _, seq := range order {
		r.Suggested(seq, "W", "P", "ADDCPU", "PACE", 1, 2, 3)
	}
	for _, seq := range append([]int{7, 9, 20, 3}, order...) {
		r.Suggested(seq, "W", "P", "ADDCPU", "PACE", 0, 0, 0)
	}
	if n := r.spans.n; n != 2+len(order) {
		t.Fatalf("%d spans, want %d", n, 2+len(order))
	}
	for _, seq := range append([]int{7, 9}, order...) {
		r.Received(seq, 4)
		r.Executed(seq, 6)
		if sp, ok := r.span(seq); !ok || sp.Seq != seq || sp.ReceivedAt != 4 || !sp.Complete() {
			t.Fatalf("Span(%d) = %+v, %v, want it found and stamped", seq, sp, ok)
		}
	}
	for _, seq := range []int{0, 2, 11, 23} {
		if sp, ok := r.span(seq); ok {
			t.Fatalf("Span(%d) found %+v, which no suggestion opened", seq, sp)
		}
	}
}

// TestSpanLogAllocatesPerChunk: opening spans allocates a chunk at a time
// (and, rarely, the list of chunks), not once per span; stamping a span
// allocates nothing.
func TestSpanLogAllocatesPerChunk(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := New(obs.NewRegistry())
	const spans = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := 1; seq <= spans; seq++ {
		r.Suggested(seq, "W", "P", "ADDCPU", "PACE", 1, 2, 3)
	}
	runtime.ReadMemStats(&after)
	chunks, _ := locate(spans - 1)
	chunks++
	if mallocs := after.Mallocs - before.Mallocs; mallocs >= uint64(2*chunks) {
		t.Errorf("opening %d spans allocated %d times, want fewer than twice its %d chunks", spans, mallocs, chunks)
	}
	stamp := func() {
		r.Received(500, 4)
		r.Planned(500, 5)
		r.Drop(500, "empty-plan", 5)
		r.Executed(500, 6)
	}
	if n := testing.AllocsPerRun(100, stamp); n != 0 {
		t.Errorf("stamping a span allocates %v times, want 0", n)
	}
}
