package decision

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dyflow/internal/trace"
)

// parentSuggestion is Suggestion as it was before it named its rule by
// descriptor, every field a copy: the reference the wire tests hold the
// descriptor's JSON to.
type parentSuggestion struct {
	ID          string            `json:"id,omitempty"`
	Workflow    string            `json:"workflow"`
	PolicyID    string            `json:"policy"`
	Action      string            `json:"action"`
	AssessTask  string            `json:"assess_task"`
	ActOnTasks  []string          `json:"act_on_tasks"`
	Params      map[string]string `json:"params,omitempty"`
	MetricValue float64           `json:"metric_value"`
	Step        int               `json:"step,omitempty"`
	GeneratedAt int64             `json:"generated_at"`
	ObservedAt  int64             `json:"observed_at,omitempty"`
	DecidedAt   int64             `json:"decided_at"`
}

// wireString draws a string a spec or a hand-written checkpoint might
// hold: empty, plain, with the characters the ID format and JSON treat
// specially, non-ASCII, or invalid UTF-8.
func wireString(rng *rand.Rand) string {
	pool := []string{"", "W", "FUSION-WORKFLOW", "INC_ON_PACE", "a/b", "p#1", "#", "/", "<&>", "é✓", "\x00\x1f", "\"\\", "\xff\xfe", " "}
	if rng.Intn(3) > 0 {
		return pool[rng.Intn(len(pool))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// genParentSuggestion draws a suggestion as the parent could hold it: the
// ID empty, the one Decision formats, or any other; no, one or several
// act-on tasks (nil and empty apart); no, empty or several params; and a
// metric value that may be −0, NaN or ±Inf.
func genParentSuggestion(rng *rand.Rand) parentSuggestion {
	p := parentSuggestion{
		Workflow:    wireString(rng),
		PolicyID:    wireString(rng),
		Action:      []string{"ADDCPU", "RMCPU", "STOP", "START", "RESTART", "SWITCH", "bogus", ""}[rng.Intn(8)],
		AssessTask:  wireString(rng),
		Step:        []int{0, 1, 374, -3, math.MaxInt64}[rng.Intn(5)],
		GeneratedAt: rng.Int63n(1 << 40),
		ObservedAt:  []int64{0, rng.Int63(), -rng.Int63()}[rng.Intn(3)],
		DecidedAt:   rng.Int63(),
	}
	switch rng.Intn(6) {
	case 0:
	case 1, 2:
		p.ID = trace.SpanID(p.Workflow, p.PolicyID, 1+rng.Intn(1000))
	case 3:
		p.ID = []string{"W/P#007", "W/P#0", "W/P#-1", "#5", "W/P#99999999999999999999", "x#", "sugg-1"}[rng.Intn(7)]
	case 4:
		p.ID = trace.SpanID(p.Workflow+"x", p.PolicyID, 1+rng.Intn(9)) // another rule's number
	default:
		p.ID = wireString(rng)
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		p.ActOnTasks = []string{}
	default:
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			p.ActOnTasks = append(p.ActOnTasks, wireString(rng))
		}
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		p.Params = map[string]string{}
	default:
		p.Params = map[string]string{}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			p.Params[wireString(rng)] = wireString(rng)
		}
	}
	switch rng.Intn(8) {
	case 0:
		p.MetricValue = math.Copysign(0, -1)
	case 1:
		p.MetricValue = math.NaN()
	case 2:
		p.MetricValue = math.Inf(1 - 2*rng.Intn(2))
	case 3:
		p.MetricValue = math.SmallestNonzeroFloat64
	default:
		p.MetricValue = rng.NormFloat64() * 1e3
	}
	return p
}

// fromParent is the suggestion Decision would send for p: p's fields as
// its rule, numbered by p's ID. ok is false when no Decision sends one —
// an ID that is not its rule's numbering, or an empty (not nil) act-on
// list, which NewRule does not keep — such suggestions are only reached
// by restoring a record.
func fromParent(p parentSuggestion) (s Suggestion, ok bool) {
	seq := trace.ParseSeq(p.ID)
	if trace.SpanID(p.Workflow, p.PolicyID, seq) != p.ID || (p.ActOnTasks != nil && len(p.ActOnTasks) == 0) {
		return Suggestion{}, false
	}
	return Suggestion{
		Rule:        NewRule(p.Workflow, p.PolicyID, p.Action, p.AssessTask, p.ActOnTasks, p.Params),
		Seq:         seq,
		MetricValue: p.MetricValue,
		Step:        p.Step,
		GeneratedAt: p.GeneratedAt,
		ObservedAt:  p.ObservedAt,
		DecidedAt:   p.DecidedAt,
	}, true
}

// sameRecord and sameSuggestion compare field by field — nil and empty
// act-on lists and params apart, a NaN metric value equal to itself.
func sameRecord(a, b SuggestionRecord) bool {
	if math.Float64bits(a.MetricValue) != math.Float64bits(b.MetricValue) {
		return false
	}
	a.MetricValue, b.MetricValue = 0, 0
	return reflect.DeepEqual(a, b)
}

func sameSuggestion(a, b Suggestion) bool {
	if math.Float64bits(a.MetricValue) != math.Float64bits(b.MetricValue) || !reflect.DeepEqual(*a.Rule, *b.Rule) {
		return false
	}
	a.MetricValue, b.MetricValue = 0, 0
	a.Rule, b.Rule = nil, nil
	return a == b
}

// checkRecord holds one parent suggestion to the record properties: the
// record of the same fields encodes to the parent's bytes (or fails where
// the parent's encoding does, on NaN and ±Inf); Live accepts it exactly
// when its ID is its rule's numbering, and then the suggestion's record
// is the record again and turns back into the same suggestion; and the
// suggestion Decision would send for p has p's record.
func checkRecord(t *testing.T, p parentSuggestion) (accepted bool) {
	t.Helper()
	rec := SuggestionRecord(p)
	want, werr := json.Marshal(p)
	got, err := json.Marshal(rec)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%+v encodes to %s (%v), the parent to %s (%v)", rec, got, err, want, werr)
	}
	s, err := rec.Live()
	canonical := trace.SpanID(p.Workflow, p.PolicyID, trace.ParseSeq(p.ID)) == p.ID
	if (err == nil) != canonical {
		t.Fatalf("%+v: Live err = %v, yet its ID canonical = %v", rec, err, canonical)
	}
	if err != nil {
		return false
	}
	if back := s.Record(); !sameRecord(back, rec) || s.ID() != p.ID {
		t.Fatalf("%+v: Live gives %+v (rule %+v), whose record is %+v", rec, s, *s.Rule, back)
	}
	if again, err := s.Record().Live(); err != nil || !sameSuggestion(again, s) {
		t.Fatalf("%+v turns into its record and back into %+v (%v)", s, again, err)
	}
	if sent, ok := fromParent(p); ok {
		if !sameRecord(sent.Record(), rec) {
			t.Fatalf("%+v has record %+v, want %+v", sent, sent.Record(), rec)
		}
		if again, err := sent.Record().Live(); err != nil || !sameSuggestion(again, sent) {
			t.Fatalf("%+v turns into its record and back into %+v (%v)", sent, again, err)
		}
	}
	return true
}

// TestProperty_SuggestionWire_EqualsParentJSON: over seeded suggestions —
// empty, canonical and odd IDs, nil, empty and several act-on tasks, nil,
// empty and several params, −0, NaN, ±Inf and random strings — a
// suggestion record's JSON is the parent's byte for byte, one by one and
// in a batch; a suggestion turns into its record and back into itself;
// and a record turns into a suggestion and back into itself exactly when
// restore accepts it (its ID is its own), the rest being rejected.
func TestProperty_SuggestionWire_EqualsParentJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var batch []SuggestionRecord
	var parents []parentSuggestion
	var sent, odd, failed, emptyActOn, emptyParams int
	for i := 0; i < 5000; i++ {
		p := genParentSuggestion(rng)
		if !checkRecord(t, p) {
			odd++
			continue
		}
		if _, err := json.Marshal(p); err != nil {
			failed++
			continue
		}
		sent++
		if p.ActOnTasks != nil && len(p.ActOnTasks) == 0 {
			emptyActOn++
		}
		if p.Params != nil && len(p.Params) == 0 {
			emptyParams++
		}
		batch, parents = append(batch, SuggestionRecord(p)), append(parents, p)
	}
	got, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(parents)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("a batch encodes to\n%s\nthe parent's to\n%s", got, want)
	}
	// The generator must reach every case the property is about.
	if sent < 1000 || odd < 1000 || failed < 300 || emptyActOn < 100 || emptyParams < 100 {
		t.Fatalf("generator coverage: %d accepted, %d rejected, %d unencodable, %d empty act-on lists, %d empty params",
			sent, odd, failed, emptyActOn, emptyParams)
	}
}

// FuzzSuggestionWireJSON: any JSON document decodes into a
// SuggestionRecord exactly when it decodes into the parent's, into the
// same fields, and then holds to checkRecord.
func FuzzSuggestionWireJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if data, err := json.Marshal(genParentSuggestion(rng)); err == nil {
			f.Add(data)
		}
	}
	for _, seed := range []string{`null`, `{}`, `[]`, `{"id":"W/P#1","workflow":"W","policy":"P"}`,
		`{"act_on_tasks":[],"params":{}}`, `{"metric_value":-0,"id":"W/P#01"}`, `{"ID":"x","Workflow":"y"}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p parentSuggestion
		perr := json.Unmarshal(data, &p)
		var rec SuggestionRecord
		rerr := json.Unmarshal(data, &rec)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%q: the parent's decode fails with %v, the record's with %v", data, perr, rerr)
		}
		if perr != nil {
			return
		}
		if !sameRecord(rec, SuggestionRecord(p)) {
			t.Fatalf("%q decodes to %+v, the parent's to %+v", data, rec, p)
		}
		checkRecord(t, p)
	})
}

func ExampleSuggestion_ID() {
	r := NewRule("GS", "INC_ON_PACE", "ADDCPU", "Iso", []string{"Iso"}, map[string]string{"adjust-by": "20"})
	fmt.Println(Suggestion{Rule: r, Seq: 12}.ID())
	// Output: GS/INC_ON_PACE#12
}
