package exp

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
)

// TestXGCSummitReproducesFigure6 checks the alternation experiment's
// shape: XGC1 and XGCa alternate 100-step runs; the proxy error condition
// switches XGCa out around global step 374; STOP_ON_COND ends the
// experiment just past 500; XGCa starts three times; starts of XGCa are
// sub-second while starts of XGC1 pay the user script.
func TestXGCSummitReproducesFigure6(t *testing.T) {
	res, err := RunXGC(1, apps.Summit)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DYFLOW_DEBUG") != "" {
		res.W.Rec.Gantt(os.Stderr, 100)
		res.W.Rec.PlanSummary(os.Stderr)
	}
	if res.FinalStep <= 500 || res.FinalStep > 520 {
		t.Fatalf("final step = %d, want just past 500", res.FinalStep)
	}
	if res.XGCaStarts != 3 {
		t.Fatalf("XGCa starts = %d, want 3", res.XGCaStarts)
	}
	// Event sequence across the alternation: XGCa after XGC1's first run,
	// XGC1 after XGCa's, XGCa again, the proxy-error switch back to XGC1,
	// the final XGCa leg, and the stop past step 500.
	var kinds []string
	for _, ev := range res.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"start-xgca", "start-xgc1", "start-xgca", "switch", "start-xgca", "stop"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	for _, ev := range res.Events {
		switch ev.Kind {
		case "start-xgca":
			if ev.Response > time.Second {
				t.Errorf("start-xgca response = %v, want sub-second", ev.Response)
			}
		case "start-xgc1":
			// Dominated by the restart script (~3.8s).
			if ev.Response < 3*time.Second || ev.Response > 10*time.Second {
				t.Errorf("start-xgc1 response = %v, want a few seconds (user script)", ev.Response)
			}
		case "switch":
			// Graceful XGCa drain + script.
			if ev.Response > 10*time.Second {
				t.Errorf("switch response = %v, want seconds", ev.Response)
			}
		case "stop":
			// Graceful drain of the current XGCa step (~2s).
			if ev.Response > 4*time.Second {
				t.Errorf("stop response = %v, want ~2s", ev.Response)
			}
		}
	}

	// EXPERIMENTS.md's Figure 6 table quotes this run.
	base, err := RunXGCBaseline(1, apps.Summit, res.FinalStep)
	if err != nil {
		t.Fatal(err)
	}
	requireTableQuotes(t, "## Figure 6", "## Table 2", XGCReport(res, time.Duration(base)))
}

// requireTableQuotes checks that EXPERIMENTS.md's table under the heading
// from (and above the heading to) quotes the report: each report row is a
// row there, under the same metric, with the measured string in its
// Measured cell.
func requireTableQuotes(t *testing.T, from, to string, rep *Report) {
	t.Helper()
	measured := map[string]string{}
	for _, line := range strings.Split(experimentsSection(t, from, to), "\n") {
		if cells := strings.Split(line, " | "); len(cells) == 4 {
			measured[strings.TrimPrefix(cells[0], "| ")] = cells[2]
		}
	}
	for _, row := range rep.Rows {
		if !strings.Contains(measured[row.Metric], row.Measured) {
			t.Errorf("EXPERIMENTS.md, %s, %q: the table says %q, this run measured %q", from, row.Metric, measured[row.Metric], row.Measured)
		}
	}
}

// experimentsSection returns EXPERIMENTS.md from the heading from up to the
// heading to.
func experimentsSection(t *testing.T, from, to string) string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(doc, []byte("\n"+from))
	end := bytes.Index(doc[max(start, 0):], []byte("\n"+to))
	if start < 0 || end < 0 {
		t.Fatalf("EXPERIMENTS.md has no section from %q to %q", from, to)
	}
	return string(doc[start : start+end])
}

// TestXGCBaselineTakesLonger: completing the same number of global steps
// with XGC1 alone costs roughly 25% more time than the orchestrated
// alternation.
func TestXGCBaselineTakesLonger(t *testing.T) {
	res, err := RunXGC(1, apps.Summit)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunXGCBaseline(1, apps.Summit, res.FinalStep)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base) / float64(res.Makespan)
	if ratio < 1.1 {
		t.Fatalf("baseline/dyflow = %.2f (base %v vs %v), want XGC1-only noticeably slower", ratio, base, res.Makespan)
	}
	if ratio > 1.6 {
		t.Fatalf("baseline/dyflow = %.2f, implausibly large", ratio)
	}
}
