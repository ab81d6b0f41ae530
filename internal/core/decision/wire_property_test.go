package decision

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"

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
// list — such suggestions are only reached by decoding.
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

// checkWire holds a suggestion's JSON to the parent's: the suggestion
// Decision would send for p encodes to p's bytes (or fails where p's
// encoding does, on NaN and ±Inf), and p's bytes decode into a
// suggestion that reads as the parent's decode of them and encodes to
// what that encodes to — the same bytes, but where invalid UTF-8 was
// escaped as \ufffd on the way out and is now U+FFFD itself.
func checkWire(t *testing.T, p parentSuggestion) {
	t.Helper()
	want, perr := json.Marshal(p)
	if s, ok := fromParent(p); ok {
		got, err := json.Marshal(s)
		if (err == nil) != (perr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%+v encodes to %s (%v), the parent's to %s (%v)", p, got, err, want, perr)
		}
	}
	if perr != nil {
		return
	}
	var d Suggestion
	if err := json.Unmarshal(want, &d); err != nil {
		t.Fatalf("decoding %s: %v", want, err)
	}
	var back parentSuggestion
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	r := d.Rule
	if d.ID() != back.ID || d.Seq != trace.ParseSeq(back.ID) || r.Workflow() != back.Workflow || r.PolicyID() != back.PolicyID ||
		r.Action() != back.Action || r.AssessTask() != back.AssessTask || r.NumActOnTasks() != len(back.ActOnTasks) ||
		math.Float64bits(d.MetricValue) != math.Float64bits(back.MetricValue) || d.Step != back.Step ||
		d.GeneratedAt != back.GeneratedAt || d.ObservedAt != back.ObservedAt || d.DecidedAt != back.DecidedAt {
		t.Fatalf("%s decodes to %+v (rule %+v), the parent's decode is %+v", want, d, *r, back)
	}
	for i, task := range back.ActOnTasks {
		if r.ActOnTask(i) != task {
			t.Fatalf("%s: act-on task %d is %q, want %q", want, i, r.ActOnTask(i), task)
		}
	}
	for k, v := range back.Params {
		if got, ok := r.Param(k); !ok || got != v {
			t.Fatalf("%s: param %q is %q (%v), want %q", want, k, got, ok, v)
		}
	}
	again, err := json.Marshal(d)
	parentAgain, _ := json.Marshal(back)
	if err != nil || !bytes.Equal(again, parentAgain) {
		t.Fatalf("%s decodes and encodes back to %s (%v), the parent's to %s", want, again, err, parentAgain)
	}
	if utf8Strings(p) && !bytes.Equal(again, want) {
		t.Fatalf("%s decodes and encodes back to %s", want, again)
	}
	var d2 Suggestion
	if err := json.Unmarshal(again, &d2); err != nil {
		t.Fatal(err)
	}
	if third, err := json.Marshal(d2); err != nil || !bytes.Equal(third, again) {
		t.Fatalf("%s is not a fixed point of decode and encode: %s (%v)", again, third, err)
	}
}

// utf8Strings reports whether every string p holds is valid UTF-8, so its
// encoding escapes none of them as \ufffd.
func utf8Strings(p parentSuggestion) bool {
	ss := append([]string{p.ID, p.Workflow, p.PolicyID, p.Action, p.AssessTask}, p.ActOnTasks...)
	for k, v := range p.Params {
		ss = append(ss, k, v)
	}
	for _, s := range ss {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

// TestProperty_SuggestionWire_EqualsParentJSON: over seeded suggestions —
// empty, canonical and odd IDs, nil, empty and several act-on tasks, nil,
// empty and several params, −0, NaN, ±Inf and random strings — a
// suggestion's JSON is the parent's byte for byte, one by one and in a
// batch, and decoding it and encoding the result gives the bytes the
// parent's decode encodes to.
func TestProperty_SuggestionWire_EqualsParentJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var batch []Suggestion
	var parents []parentSuggestion
	var sent, odd, failed int
	for i := 0; i < 5000; i++ {
		p := genParentSuggestion(rng)
		checkWire(t, p)
		s, ok := fromParent(p)
		if !ok {
			odd++
			continue
		}
		if _, err := json.Marshal(p); err != nil {
			failed++
			continue
		}
		sent++
		batch, parents = append(batch, s), append(parents, p)
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
	var decoded []Suggestion
	var parentDecoded []parentSuggestion
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &parentDecoded); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(decoded)
	parentAgain, _ := json.Marshal(parentDecoded)
	if err != nil || !bytes.Equal(again, parentAgain) {
		t.Fatalf("a decoded batch encodes back to other bytes than the parent's (%v)", err)
	}
	// The generator must reach every case the property is about.
	if sent < 1000 || odd < 1000 || failed < 300 {
		t.Fatalf("generator coverage: %d sendable, %d decode-only, %d unencodable", sent, odd, failed)
	}
}

// FuzzSuggestionWireJSON: any JSON document decodes into a Suggestion
// exactly when it decodes into the parent's, and then encodes to the
// parent decode's bytes (or fails where that does); decoding that
// encoding and encoding the result gives the bytes the parent's type
// does.
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
		var s Suggestion
		serr := json.Unmarshal(data, &s)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("%q: the parent's decode fails with %v, the descriptor's with %v", data, perr, serr)
		}
		if perr != nil {
			return
		}
		want, werr := json.Marshal(p)
		got, gerr := json.Marshal(s)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%q encodes to %s (%v), the parent's decode to %s (%v)", data, got, gerr, want, werr)
		}
		if werr != nil {
			return
		}
		var again Suggestion
		if err := json.Unmarshal(got, &again); err != nil {
			t.Fatal(err)
		}
		var parentAgain parentSuggestion
		if err := json.Unmarshal(want, &parentAgain); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(again)
		pb, _ := json.Marshal(parentAgain)
		if err != nil || !bytes.Equal(b, pb) {
			t.Fatalf("%s decodes and encodes back to %s (%v), the parent's to %s", got, b, err, pb)
		}
	})
}

func ExampleSuggestion_ID() {
	r := NewRule("GS", "INC_ON_PACE", "ADDCPU", "Iso", []string{"Iso"}, map[string]string{"adjust-by": "20"})
	fmt.Println(Suggestion{Rule: r, Seq: 12}.ID())
	// Output: GS/INC_ON_PACE#12
}
