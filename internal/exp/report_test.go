package exp

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core/arbiter"
)

// holds reports whether every row of r holds.
func holds(r *Report) bool {
	return !slices.ContainsFunc(r.Rows, func(row Row) bool { return !row.Holds })
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "Figure X", Title: "demo"}
	r.Add("alpha", "1", "1", true)
	r.Add("beta metric with a long name", "expected", "got something else", false)
	if holds(r) {
		t.Fatal("report with a failing row must not hold")
	}
	var buf bytes.Buffer
	r.Write(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "demo", "alpha", "HOLDS", "DIFFERS", "beta metric"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestAllPaperReportsHold is the one-shot "reproduce the whole evaluation"
// gate: every report builder over a fresh seed must hold end to end.
func TestAllPaperReportsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	const seed = 5
	gs, err := RunGrayScott(seed, apps.Summit, true)
	if err != nil {
		t.Fatal(err)
	}
	gsBase, err := RunGrayScott(seed, apps.Summit, false)
	if err != nil {
		t.Fatal(err)
	}
	xgc, err := RunXGC(seed, apps.Summit)
	if err != nil {
		t.Fatal(err)
	}
	xgcBase, err := RunXGCBaseline(seed, apps.Summit, xgc.FinalStep)
	if err != nil {
		t.Fatal(err)
	}
	md, err := RunLAMMPS(seed, apps.Summit, true)
	if err != nil {
		t.Fatal(err)
	}
	op, err := RunGrayScottOverProvisioned(seed, apps.Summit)
	if err != nil {
		t.Fatal(err)
	}
	cost := &CostResult{
		StreamLagMean: gs.W.Orch.Trace.SensorLagMean("PACE"),
		DiskLagMean:   xgc.W.Orch.Trace.SensorLagMean("NSTEPS"),
		StopShare:     gs.W.Trace.OpShare(arbiter.OpStop.String()),
		MeanPlanTime:  100 * time.Millisecond,
	}
	reports := []*Report{
		Figure1Report(gs),
		GrayScottReport(gs, gsBase),
		XGCReport(xgc, time.Duration(xgcBase)),
		LAMMPSReport(md),
		OverProvisionReport(op),
		CostReport(cost),
	}
	for _, rep := range reports {
		if !holds(rep) {
			var buf bytes.Buffer
			rep.Write(&buf)
			t.Errorf("report does not hold:\n%s", buf.String())
		}
	}
}

func TestDT2ReportsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	gs, err := RunGrayScott(2, apps.Deepthought2, true)
	if err != nil {
		t.Fatal(err)
	}
	gsBase, err := RunGrayScott(2, apps.Deepthought2, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep := GrayScottReport(gs, gsBase); !holds(rep) {
		var buf bytes.Buffer
		rep.Write(&buf)
		t.Errorf("DT2 Gray-Scott report:\n%s", buf.String())
	}
	md, err := RunLAMMPS(2, apps.Deepthought2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep := LAMMPSReport(md); !holds(rep) {
		var buf bytes.Buffer
		rep.Write(&buf)
		t.Errorf("DT2 LAMMPS report:\n%s", buf.String())
	}
}

func TestPlotSeries(t *testing.T) {
	var buf bytes.Buffer
	series := []MetricPoint{
		{At: 0, Value: 50},
		{At: 60e9, Value: 45},
		{At: 120e9, Value: 30},
		{At: 180e9, Value: 30},
	}
	PlotSeries(&buf, "demo", series, 40, 8, 36, 24)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "●") || !strings.Contains(out, "┄") {
		t.Fatalf("plot output:\n%s", out)
	}
	// Empty series degrade gracefully.
	buf.Reset()
	PlotSeries(&buf, "empty", nil, 40, 8)
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatalf("empty plot output: %s", buf.String())
	}
	// Constant series (zero span) must not divide by zero.
	buf.Reset()
	PlotSeries(&buf, "flat", []MetricPoint{{At: 0, Value: 5}, {At: 1e9, Value: 5}}, 20, 4)
	if !strings.Contains(buf.String(), "●") {
		t.Fatalf("flat plot output: %s", buf.String())
	}
}
