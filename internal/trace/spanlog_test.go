package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// TestSpanLogKeepsSpansInPlace: the recorder holds spans as records in
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
	if first.executedAt != 9 {
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

// The reference below is the span log as it was before it stored compact
// records: every span held as a Span value, its strings repeated in each.
// TestProperty_SpanLog_EqualsValueLog and FuzzSpanLog_EqualsValueLog check
// the recorder's spans against it.

// valueLog holds spans as values in creation order, in chunks that are
// never reallocated, and finds each by its Seq as spanLog does.
type valueLog struct {
	chunks [][]Span
	n      int
	moved  map[int]int // Seq → index, for spans not at Seq − span 0's Seq
}

func (l *valueLog) at(i int) *Span {
	c, off := locate(i)
	return &l.chunks[c][off]
}

func (l *valueLog) add(sp Span) {
	if l.n > 0 && sp.Seq-l.at(0).Seq != l.n {
		if l.moved == nil {
			l.moved = make(map[int]int)
		}
		l.moved[sp.Seq] = l.n
	}
	c, off := locate(l.n)
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]Span, min(spanChunkMin<<c, spanChunkMax)))
	}
	l.chunks[c][off] = sp
	l.n++
}

func (l *valueLog) find(seq int) *Span {
	if seq < 1 || l.n == 0 {
		return nil
	}
	if i := seq - l.at(0).Seq; i >= 0 && i < l.n {
		if sp := l.at(i); sp.Seq == seq {
			return sp
		}
	}
	if i, ok := l.moved[seq]; ok {
		return l.at(i)
	}
	return nil
}

// valueRecorder is the span half of the recorder over a valueLog.
type valueRecorder struct {
	spans      valueLog
	onComplete func(Span)
}

func (r *valueRecorder) Suggested(seq int, workflow, policy, action, sensorID string, generatedAt, observedAt, decidedAt sim.Time) {
	if seq < 1 || r.spans.find(seq) != nil {
		return
	}
	r.spans.add(Span{Seq: seq, Workflow: workflow, Policy: policy, Action: action, Sensor: sensorID,
		GeneratedAt: generatedAt, ObservedAt: observedAt, DecidedAt: decidedAt})
}

func (r *valueRecorder) Received(seq int, at sim.Time) {
	if sp := r.spans.find(seq); sp != nil {
		sp.ReceivedAt = at
	}
}

func (r *valueRecorder) Planned(seq int, at sim.Time) {
	if sp := r.spans.find(seq); sp != nil {
		sp.PlannedAt = at
	}
}

func (r *valueRecorder) Executed(seq int, at sim.Time) {
	if sp := r.spans.find(seq); sp != nil {
		sp.ExecutedAt = at
		if r.onComplete != nil {
			r.onComplete(*sp)
		}
	}
}

func (r *valueRecorder) Drop(seq int, reason string, at sim.Time) {
	if sp := r.spans.find(seq); sp != nil {
		sp.Dropped = reason
		if sp.ReceivedAt == 0 {
			sp.ReceivedAt = at
		}
	}
}

func (r *valueRecorder) Spans() []Span {
	out := make([]Span, r.spans.n)
	for i := range out {
		out[i] = *r.spans.at(i)
	}
	return out
}

func (r *valueRecorder) VisitSpans(fn func(sp *Span)) {
	for i := 0; i < r.spans.n; i++ {
		fn(r.spans.at(i))
	}
}

// spanTuples are the rules a schedule's suggestions name: each differs
// from the first in one field, so a log that interned fewer than all four
// fields would hand one tuple's strings to another.
var spanTuples = [][4]string{
	{"W", "P", "ADDCPU", "PACE"},
	{"V", "P", "ADDCPU", "PACE"},
	{"W", "Q", "ADDCPU", "PACE"},
	{"W", "P", "RMCPU", "PACE"},
	{"W", "P", "ADDCPU", ""},
	{"W", "P", "ADDCPU", "ERR"},
}

// spanReasons are Arbitration's four drop reasons.
var spanReasons = []string{"warmup", "settle", "stale", "empty-plan"}

// spanStats counts what a schedule reached.
type spanStats struct {
	inOrder, gapped, lower, repeated, invalid int
	stamps, unknown, hooks                    int
	drops                                     [4]int
	maxSpans                                  int
}

// genSpanSchedule draws a schedule for checkSpanSchedule: three bytes an
// operation, mostly suggestions early on and stamps later.
func genSpanSchedule(rng *rand.Rand) []byte {
	n, suggest := 1+rng.Intn(64), 3
	if rng.Intn(8) == 0 {
		// Enough spans to fill the chunks past the first full-size one.
		n, suggest = 300+rng.Intn(200), 1
	}
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		kind := byte(rng.Intn(5))
		if rng.Intn(suggest+1) == 0 {
			kind = 0 // Suggested
		}
		ops = append(ops, kind, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

// checkSpanSchedule plays a schedule on a recorder and on a valueRecorder
// and fails unless, after every operation, the two hold equal spans
// (Spans), visit equal spans (VisitSpans) and handed their hooks equal
// copies. Each operation is three bytes: its kind, the choice of seq and
// an argument (the tuple, the gap or the drop reason).
func checkSpanSchedule(t *testing.T, ops []byte) spanStats {
	t.Helper()
	var st spanStats
	r, ref := New(obs.NewRegistry()), &valueRecorder{}
	var hooked, refHooked []Span
	r.SetOnComplete(func(sp Span) { hooked = append(hooked, sp) })
	ref.onComplete = func(sp Span) { refHooked = append(refHooked, sp) }
	var opened []int // the seqs opened so far
	last := 0        // the highest seq Suggested was called with
	at := sim.Time(0)
	for i := 0; i+2 < len(ops); i += 3 {
		kind, sel, arg := ops[i]%5, int(ops[i+1]), int(ops[i+2])
		at += sim.Time(1 + arg%3)
		var desc string
		if kind == 0 || len(opened) == 0 {
			var seq int
			switch {
			case sel%5 == 1:
				seq = last + 2 + arg%4
				st.gapped++
			case sel%5 == 2 && last > 0:
				seq = 1 + arg%last
				st.lower++
			case sel%5 == 3 && len(opened) > 0:
				seq = opened[arg%len(opened)]
				st.repeated++
			case sel%5 == 4:
				seq = -(arg % 2)
				st.invalid++
			default:
				seq = last + 1
				st.inOrder++
			}
			last = max(last, seq)
			tu := spanTuples[arg%len(spanTuples)]
			gen, obsAt := at-sim.Time(2+sel%3), at-sim.Time(1)
			r.Suggested(seq, tu[0], tu[1], tu[2], tu[3], gen, obsAt, at)
			ref.Suggested(seq, tu[0], tu[1], tu[2], tu[3], gen, obsAt, at)
			desc = fmt.Sprintf("Suggested(%d, %v)", seq, tu)
		} else {
			seq := opened[sel%len(opened)]
			if sel%8 == 7 {
				seq = last + 1 + arg%3 // no span
				st.unknown++
			} else {
				st.stamps++
			}
			switch kind {
			case 1:
				r.Received(seq, at)
				ref.Received(seq, at)
				desc = fmt.Sprintf("Received(%d)", seq)
			case 2:
				r.Planned(seq, at)
				ref.Planned(seq, at)
				desc = fmt.Sprintf("Planned(%d)", seq)
			case 3:
				r.Executed(seq, at)
				ref.Executed(seq, at)
				desc = fmt.Sprintf("Executed(%d)", seq)
			case 4:
				reason := spanReasons[arg%len(spanReasons)]
				st.drops[arg%len(spanReasons)]++
				r.Drop(seq, reason, at)
				ref.Drop(seq, reason, at)
				desc = fmt.Sprintf("Drop(%d, %q)", seq, reason)
			}
		}
		want := ref.Spans()
		if got := r.Spans(); !slices.Equal(got, want) {
			t.Fatalf("op %d %s: Spans\n got %+v\nwant %+v", i/3, desc, got, want)
		}
		var visited, refVisited []Span
		r.VisitSpans(func(sp *Span) { visited = append(visited, *sp) })
		ref.VisitSpans(func(sp *Span) { refVisited = append(refVisited, *sp) })
		if !slices.Equal(visited, refVisited) {
			t.Fatalf("op %d %s: VisitSpans\n got %+v\nwant %+v", i/3, desc, visited, refVisited)
		}
		if !slices.Equal(hooked, refHooked) {
			t.Fatalf("op %d %s: hook copies\n got %+v\nwant %+v", i/3, desc, hooked, refHooked)
		}
		opened = opened[:0]
		for _, sp := range want {
			opened = append(opened, sp.Seq)
		}
		st.maxSpans = max(st.maxSpans, len(want))
	}
	st.hooks = len(hooked)
	return st
}

// TestProperty_SpanLog_EqualsValueLog: over generated schedules of
// suggestions (in order, after a gap, below the last, repeated, invalid)
// naming six rule tuples, and of Received, Planned, Executed and Drop
// stamps (each of the four reasons, on opened and unopened seqs), the
// recorder's compact log reads as the value log it replaced after every
// operation: its Spans, its VisitSpans sequence and its hook's copies.
func TestProperty_SpanLog_EqualsValueLog(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var total spanStats
	for i := 0; i < 400; i++ {
		st := checkSpanSchedule(t, genSpanSchedule(rng))
		total.inOrder += st.inOrder
		total.gapped += st.gapped
		total.lower += st.lower
		total.repeated += st.repeated
		total.invalid += st.invalid
		total.stamps += st.stamps
		total.unknown += st.unknown
		total.hooks += st.hooks
		for k, n := range st.drops {
			total.drops[k] += n
		}
		total.maxSpans = max(total.maxSpans, st.maxSpans)
	}
	// The generator must reach every case the property is about.
	if total.inOrder < 1000 || total.gapped < 500 || total.lower < 500 || total.repeated < 500 || total.invalid < 500 ||
		total.stamps < 2000 || total.unknown < 200 || total.hooks < 500 || slices.Min(total.drops[:]) < 200 ||
		total.maxSpans < spanChunkHead+spanChunkMax {
		t.Fatalf("generator coverage: %+v", total)
	}
}

// FuzzSpanLog_EqualsValueLog runs the property on fuzzed schedules.
func FuzzSpanLog_EqualsValueLog(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		f.Add(genSpanSchedule(rng))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		checkSpanSchedule(t, ops)
	})
}
