package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"dyflow/internal/sim"
)

// parentSpan is Span as it was before the recorder found spans by their
// number, every field a copy: the reference the wire tests hold a span's
// JSON to.
type parentSpan struct {
	ID       string `json:"id"`
	Workflow string `json:"workflow"`
	Policy   string `json:"policy"`
	Action   string `json:"action"`
	Sensor   string `json:"sensor,omitempty"`

	GeneratedAt sim.Time `json:"generated_at"`
	ObservedAt  sim.Time `json:"observed_at"`
	DecidedAt   sim.Time `json:"decided_at"`
	ReceivedAt  sim.Time `json:"received_at,omitempty"`
	PlannedAt   sim.Time `json:"planned_at,omitempty"`
	ExecutedAt  sim.Time `json:"executed_at,omitempty"`

	Dropped string `json:"dropped,omitempty"`
}

func spanString(rng *rand.Rand) string {
	pool := []string{"", "W", "INC_ON_PACE", "a/b", "p#1", "#", "<&>", "é✓", "\x00", "\"\\", "\xff"}
	return pool[rng.Intn(len(pool))]
}

// genParentSpan draws a span as the parent could hold it, with an empty,
// canonical or odd ID.
func genParentSpan(rng *rand.Rand) parentSpan {
	at := func() sim.Time { return []sim.Time{0, 1, sim.Time(rng.Int63()), -5}[rng.Intn(4)] }
	p := parentSpan{
		Workflow: spanString(rng), Policy: spanString(rng), Action: spanString(rng), Sensor: spanString(rng),
		GeneratedAt: at(), ObservedAt: at(), DecidedAt: at(), ReceivedAt: at(), PlannedAt: at(), ExecutedAt: at(),
		Dropped: []string{"", "warmup", "settle", "stale", "empty-plan"}[rng.Intn(5)],
	}
	switch rng.Intn(4) {
	case 0:
	case 1, 2:
		p.ID = SpanID(p.Workflow, p.Policy, 1+rng.Intn(500))
	default:
		p.ID = []string{"s1", "W/P#007", "W/P#0", "x#3", "sugg-7", "#"}[rng.Intn(6)]
	}
	return p
}

// checkRecord holds one parent span to the record property — the record
// of the same fields encodes to the parent's bytes — and reports whether
// its ID is SpanID of its own fields and number, as a span's record's is.
func checkRecord(t *testing.T, p parentSpan) (canonical bool) {
	t.Helper()
	rec := SpanRecord(p)
	want, werr := json.Marshal(p)
	got, err := json.Marshal(rec)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%+v encodes to %s (%v), the parent to %s (%v)", rec, got, err, want, werr)
	}
	return SpanID(p.Workflow, p.Policy, ParseSeq(p.ID)) == p.ID
}

// TestProperty_SpanWire_EqualsParentJSON: over seeded spans — empty,
// canonical and odd IDs, random strings and times — a span record
// encodes to the parent's bytes, and a span the recorder opens turns into
// the record of its lifecycle, whose ID is canonical.
func TestProperty_SpanWire_EqualsParentJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var opened, odd int
	for i := 0; i < 3000; i++ {
		p := genParentSpan(rng)
		if !checkRecord(t, p) {
			odd++
			continue
		}
		opened++
		sp := Span{Seq: ParseSeq(p.ID), Workflow: p.Workflow, Policy: p.Policy, Action: p.Action, Sensor: p.Sensor,
			GeneratedAt: p.GeneratedAt, ObservedAt: p.ObservedAt, DecidedAt: p.DecidedAt,
			ReceivedAt: p.ReceivedAt, PlannedAt: p.PlannedAt, ExecutedAt: p.ExecutedAt, Dropped: p.Dropped}
		if rec := sp.Record(); rec != SpanRecord(p) {
			t.Fatalf("%+v has record %+v, want %+v", sp, rec, p)
		}
	}
	if opened < 1000 || odd < 500 {
		t.Fatalf("generator coverage: %d canonical IDs, %d odd", opened, odd)
	}
}

// FuzzSpanWireJSON: any JSON document decodes into a SpanRecord exactly
// when it decodes into the parent's, and then holds to checkRecord.
func FuzzSpanWireJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		data, _ := json.Marshal(genParentSpan(rng))
		f.Add(data)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":"W/P#1","workflow":"W","policy":"P","executed_at":9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p parentSpan
		perr := json.Unmarshal(data, &p)
		var rec SpanRecord
		rerr := json.Unmarshal(data, &rec)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%q: the parent's decode fails with %v, the record's with %v", data, perr, rerr)
		}
		if perr != nil {
			return
		}
		if rec != SpanRecord(p) {
			t.Fatalf("%q decodes to %+v, the parent's to %+v", data, rec, p)
		}
		checkRecord(t, p)
	})
}
