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

// TestProperty_SpanWire_EqualsParentJSON: a span the recorder opens
// encodes to the parent's bytes for the same lifecycle, and a parent
// encoding — empty, canonical or odd ID — decodes into a span whose ID is
// the parent's and that encodes back to the parent decode's bytes.
func TestProperty_SpanWire_EqualsParentJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var opened, odd int
	for i := 0; i < 3000; i++ {
		p := genParentSpan(rng)
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq := ParseSeq(p.ID); SpanID(p.Workflow, p.Policy, seq) == p.ID {
			opened++
			sp := Span{Seq: seq, Workflow: p.Workflow, Policy: p.Policy, Action: p.Action, Sensor: p.Sensor,
				GeneratedAt: p.GeneratedAt, ObservedAt: p.ObservedAt, DecidedAt: p.DecidedAt,
				ReceivedAt: p.ReceivedAt, PlannedAt: p.PlannedAt, ExecutedAt: p.ExecutedAt, Dropped: p.Dropped}
			if got, err := json.Marshal(sp); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%+v encodes to %s (%v), the parent's to %s", sp, got, err, want)
			}
		} else {
			odd++
		}
		var d Span
		if err := json.Unmarshal(want, &d); err != nil {
			t.Fatal(err)
		}
		var back parentSpan
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if d.ID() != back.ID || d.Seq != ParseSeq(back.ID) || d.Workflow != back.Workflow || d.Dropped != back.Dropped || d.ExecutedAt != back.ExecutedAt {
			t.Fatalf("%s decodes to %+v, the parent's decode is %+v", want, d, back)
		}
		got, err := json.Marshal(d)
		parentAgain, _ := json.Marshal(back)
		if err != nil || !bytes.Equal(got, parentAgain) {
			t.Fatalf("%s decodes and encodes back to %s (%v), the parent's to %s", want, got, err, parentAgain)
		}
	}
	if opened < 1000 || odd < 500 {
		t.Fatalf("generator coverage: %d canonical IDs, %d odd", opened, odd)
	}
}

// FuzzSpanWireJSON: any JSON document decodes into a Span exactly when it
// decodes into the parent's, and then encodes to the parent decode's
// bytes.
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
		var sp Span
		serr := json.Unmarshal(data, &sp)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("%q: the parent's decode fails with %v, the span's with %v", data, perr, serr)
		}
		if perr != nil {
			return
		}
		want, _ := json.Marshal(p)
		if got, err := json.Marshal(sp); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q encodes to %s (%v), the parent's decode to %s", data, got, err, want)
		}
	})
}
