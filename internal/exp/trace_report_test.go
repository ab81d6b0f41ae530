package exp

import (
	"bytes"
	"testing"

	"dyflow/internal/apps"
	"dyflow/internal/trace"
)

// TestTraceReportDeterministic: the flight recorder's rendered §4.6-style
// report is byte-identical across equal-seed Gray-Scott runs (golden
// property — the report is a function of the run, with all groupings in
// sorted order).
func TestTraceReportDeterministic(t *testing.T) {
	render := func() string {
		res, err := RunGrayScott(1, apps.Summit, true)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.W.Orch.Trace.Report().Write(&buf)
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("trace reports diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestTraceSpansCorrelateAcrossStages: on a full Gray-Scott run, every
// executed arbitration round resolves its SuggestionIDs to recorder spans
// whose six stage timestamps are monotone non-decreasing
// (GeneratedAt ≤ ObservedAt ≤ DecidedAt ≤ ReceivedAt ≤ PlannedAt ≤
// ExecutedAt) and agree with the round's own record.
func TestTraceSpansCorrelateAcrossStages(t *testing.T) {
	res, err := RunGrayScott(1, apps.Summit, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.W.Orch.Trace
	recs := res.W.Plans()
	if len(recs) == 0 {
		t.Fatal("no arbitration rounds executed")
	}
	spans := map[int]trace.Span{}
	for _, sp := range tr.Spans() {
		spans[sp.Seq] = sp
	}
	for _, rec := range recs {
		if len(rec.SuggestionIDs) == 0 {
			t.Fatalf("record %+v carries no suggestion IDs", rec)
		}
		for _, id := range rec.SuggestionIDs {
			sp, ok := spans[trace.ParseSeq(id)]
			if !ok {
				t.Fatalf("record references unknown span %q", id)
			}
			if !sp.Complete() {
				t.Errorf("span %q of an executed round is incomplete: %+v", id, sp)
			}
			if !sp.Monotone() {
				t.Errorf("span %q timestamps out of order: %+v", id, sp)
			}
			if sp.ReceivedAt != rec.ReceivedAt || sp.PlannedAt != rec.PlannedAt || sp.ExecutedAt != rec.ExecutedAt {
				t.Errorf("span %q disagrees with its record: span %+v record %+v", id, sp, rec)
			}
		}
	}
	// Every span the recorder holds — executed or dropped — is monotone.
	for _, sp := range tr.Spans() {
		if !sp.Monotone() {
			t.Errorf("span %q non-monotone: %+v", sp.ID(), sp)
		}
		if !sp.Complete() && sp.Dropped == "" {
			t.Errorf("span %q neither completed nor dropped: %+v", sp.ID(), sp)
		}
	}
}

// TestTraceReportCoversPipeline: the report of a Gray-Scott run has entries
// for every section — stage latencies per policy, sensor lags, op
// latencies, counters, and queue depths.
func TestTraceReportCoversPipeline(t *testing.T) {
	res, err := RunGrayScott(1, apps.Summit, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.W.Orch.Trace.Report()
	if len(rep.Spans) == 0 || len(rep.Stages) == 0 || len(rep.SensorLags) == 0 ||
		len(rep.Ops) == 0 || len(rep.Counters) == 0 || len(rep.Queues) == 0 {
		t.Fatalf("report sections missing: spans=%d stages=%d lags=%d ops=%d counters=%d queues=%d",
			len(rep.Spans), len(rep.Stages), len(rep.SensorLags), len(rep.Ops), len(rep.Counters), len(rep.Queues))
	}
	want := []string{
		"monitor.forwarded", "decision.evaluations", "decision.suggestions",
		"arbiter.rounds", "actuate.ops",
	}
	have := map[string]int64{}
	for _, c := range rep.Counters {
		have[c.Name] = c.Value
	}
	for _, name := range want {
		if have[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, have[name])
		}
	}
}
