package dyflow

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4) plus ablations of the design choices called out in
// DESIGN.md. Each benchmark runs the full scenario per iteration and
// reports the paper's headline quantities as custom metrics (virtual-time
// seconds and shape indicators), so `go test -bench . -benchmem` prints the
// reproduced evaluation alongside the harness cost. Absolute numbers are
// virtual-time; the shape — who wins, by what factor, where events land —
// is the reproduction target (see EXPERIMENTS.md).

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/exp"
)

// benchMachine selects the machine benchmarks run against.
const benchMachine = apps.Summit

// reportHolds reports whether every row of r holds.
func reportHolds(r *exp.Report) bool {
	return !slices.ContainsFunc(r.Rows, func(row exp.Row) bool { return !row.Holds })
}

// BenchmarkTable1XGCComposition regenerates Table 1: composing and
// launching the XGC1/XGCa configuration (192 procs at 14/node on Summit).
func BenchmarkTable1XGCComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := apps.XGCConfigFor(benchMachine)
		w, err := exp.NewWorld(1, benchMachine, cfg.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.SV.Compose(apps.XGCWorkflow(benchMachine)); err != nil {
			b.Fatal(err)
		}
		w.Launch(apps.XGCWorkflowID)
		if err := w.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
		if !w.SV.TaskRunning(apps.XGCWorkflowID, "XGC1") {
			b.Fatal("XGC1 did not launch")
		}
		b.ReportMetric(float64(cfg.Procs), "procs")
		b.ReportMetric(float64(cfg.StepsPerRun), "steps/run")
	}
}

// BenchmarkTable2GrayScottComposition regenerates Table 2: the full five-
// task in situ composition filling every Summit node (34+2+2+2+2 = 42).
func BenchmarkTable2GrayScottComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := apps.GrayScottConfigFor(benchMachine)
		w, err := exp.NewWorld(1, benchMachine, cfg.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.SV.Compose(apps.GrayScottWorkflow(benchMachine)); err != nil {
			b.Fatal(err)
		}
		w.Launch(apps.GrayScottWorkflowID)
		if err := w.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
		if free := w.RM.Free().Total(); free != 0 {
			b.Fatalf("Table 2 packs all cores; %d left free", free)
		}
		b.ReportMetric(float64(cfg.GrayScott.Procs), "sim-procs")
	}
}

// BenchmarkTable3LAMMPSComposition regenerates Table 3: LAMMPS plus three
// analyses (30+4+4+4 = 42 per node across 50 nodes, 2 spares).
func BenchmarkTable3LAMMPSComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := apps.LAMMPSConfigFor(benchMachine)
		w, err := exp.NewWorld(1, benchMachine, cfg.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.SV.Compose(apps.LAMMPSWorkflow(benchMachine)); err != nil {
			b.Fatal(err)
		}
		w.Launch(apps.LAMMPSWorkflowID)
		if err := w.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cfg.LAMMPS.Procs), "md-procs")
		b.ReportMetric(float64(cfg.TotalAtoms), "atoms")
	}
}

// BenchmarkFigure1Throughput regenerates Figure 1: the in situ workflow's
// average time per timestep before and after DYFLOW's rebalancing.
func BenchmarkFigure1Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		if !reportHolds(exp.Figure1Report(res)) {
			b.Fatal("Figure 1 shape does not hold")
		}
		b.ReportMetric(res.PaceBefore, "s/step-before")
		b.ReportMetric(res.PaceAfter, "s/step-after")
		b.ReportMetric((res.PaceBefore/res.PaceAfter-1)*100, "throughput-gain-%")
	}
}

// BenchmarkFigure6XGCSwitching regenerates Figure 6: the alternation Gantt
// with its per-event response times and the XGC1-only baseline comparison.
func BenchmarkFigure6XGCSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunXGC(int64(i+1), benchMachine)
		if err != nil {
			b.Fatal(err)
		}
		base, err := exp.RunXGCBaseline(int64(i+1), benchMachine, res.FinalStep)
		if err != nil {
			b.Fatal(err)
		}
		if !reportHolds(exp.XGCReport(res, time.Duration(base))) {
			b.Fatal("Figure 6 shape does not hold")
		}
		b.ReportMetric(float64(res.FinalStep), "final-step")
		b.ReportMetric(float64(res.XGCaStarts), "xgca-starts")
		b.ReportMetric(float64(base)/float64(res.Makespan), "baseline-slowdown-x")
	}
}

// BenchmarkFigure8UnderProvisioning regenerates Figure 8: two adaptations
// growing Isosurface 20->40->60 with PDF_Calc then FFT victimized.
func BenchmarkFigure8UnderProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		base, err := exp.RunGrayScott(int64(i+1), benchMachine, false)
		if err != nil {
			b.Fatal(err)
		}
		if !reportHolds(exp.GrayScottReport(res, base)) {
			b.Fatal("Figure 8 shape does not hold")
		}
		var resp time.Duration
		for _, p := range res.W.Plans() {
			resp += p.ResponseTime()
		}
		b.ReportMetric(float64(len(res.W.Plans())), "adaptations")
		b.ReportMetric(resp.Seconds()/float64(len(res.W.Plans())), "response-s")
		b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
		b.ReportMetric(base.Makespan.Seconds(), "baseline-s")
	}
}

// BenchmarkFigure9PaceSeries regenerates Figure 9: the per-task average
// time-per-timestep series as Decision received them.
func BenchmarkFigure9PaceSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		series := res.W.Rec.Series(apps.GrayScottWorkflowID, "Isosurface", "PACE")
		if len(series) == 0 {
			b.Fatal("no PACE series recorded")
		}
		// The series must show the threshold crossing and the recovery.
		over, under := 0, 0
		for _, p := range series {
			if p.Value > 36 {
				over++
			} else if p.Value <= 36 && p.Value >= 24 {
				under++
			}
		}
		if over == 0 || under == 0 {
			b.Fatalf("series lacks the crossing shape: %d over, %d in-band", over, under)
		}
		b.ReportMetric(float64(len(series)), "points")
		b.ReportMetric(float64(over), "points-above-36s")
	}
}

// BenchmarkFigure11FailureRecovery regenerates Figure 11: node failure at
// 10 minutes, sub-second recovery plan, checkpoint resume at step 412.
func BenchmarkFigure11FailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunLAMMPS(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		if !reportHolds(exp.LAMMPSReport(res)) {
			b.Fatal("Figure 11 shape does not hold")
		}
		b.ReportMetric(res.RecoveryResponse.Seconds(), "recovery-s")
		b.ReportMetric(float64(res.ResumeStep), "resume-step")
		b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
	}
}

// BenchmarkCostAnalysisLag regenerates the §4.6 cost table: detection lag
// by source type and the graceful-termination share of response time.
func BenchmarkCostAnalysisLag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunCostAnalysis(int64(i+1), benchMachine)
		if err != nil {
			b.Fatal(err)
		}
		if !reportHolds(exp.CostReport(res)) {
			b.Fatal("§4.6 cost shape does not hold")
		}
		b.ReportMetric(res.DiskLagMean.Seconds(), "disk-lag-s")
		b.ReportMetric(res.StreamLagMean.Seconds(), "stream-lag-s")
		b.ReportMetric(res.StopShare*100, "stop-share-%")
	}
}

// BenchmarkOverProvisioning regenerates the §4.4 over-provisioning
// variant: DEC_ON_PACE releases surplus cores while the pace stays in the
// desired band.
func BenchmarkOverProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunGrayScottOverProvisioned(int64(i+1), benchMachine)
		if err != nil {
			b.Fatal(err)
		}
		if !reportHolds(exp.OverProvisionReport(res)) {
			b.Fatal("over-provisioning shape does not hold")
		}
		b.ReportMetric(float64(res.FreedCores()), "cores-freed")
		b.ReportMetric(res.PaceAfter, "s/step-after")
	}
}

// --- Ablations of DESIGN.md's called-out design choices. ---

// BenchmarkAblationSettleGuard measures the paper's 2-minute settle guard
// against no guard: the guard trades reaction latency (the second
// adaptation waits out the window, stretching the makespan slightly) for
// protection against post-change transients re-triggering policies. In
// this calibrated scenario both converge to the same plan count; the
// makespan difference is the guard's cost.
func BenchmarkAblationSettleGuard(b *testing.B) {
	noSettle := arbiter.DefaultConfig()
	noSettle.SettleDelay = 0
	for i := 0; i < b.N; i++ {
		withGuard, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		without, err := exp.RunGrayScottVariant(int64(i+1), benchMachine, true, exp.Variant{Arbiter: &noSettle})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(withGuard.W.Plans())), "plans-guarded")
		b.ReportMetric(float64(len(without.W.Plans())), "plans-unguarded")
		b.ReportMetric(withGuard.Makespan.Seconds(), "makespan-guarded-s")
		b.ReportMetric(without.Makespan.Seconds(), "makespan-unguarded-s")
	}
}

// BenchmarkAblationHistoryWindow compares window-averaged evaluation with
// instantaneous values: noise makes single-step readings cross thresholds
// spuriously.
func BenchmarkAblationHistoryWindow(b *testing.B) {
	noHistory := strings.ReplaceAll(GrayScottXML(benchMachine), `
        <history window="10" operation="AVG"/>`, "")
	if strings.Contains(noHistory, "<history") {
		b.Fatal("the Gray-Scott document's <history> elements changed shape")
	}
	for i := 0; i < b.N; i++ {
		windowed, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		instant, err := exp.RunGrayScottVariant(int64(i+1), benchMachine, true, exp.Variant{XML: noHistory})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(windowed.W.Plans())), "plans-windowed")
		b.ReportMetric(float64(len(instant.W.Plans())), "plans-instant")
	}
}

// BenchmarkAblationVictimSelection compares priority-based preemption with
// deny-on-full: without victims the under-provisioned workflow cannot be
// fixed (no free cores exist) and stays slow.
func BenchmarkAblationVictimSelection(b *testing.B) {
	noVictims := arbiter.DefaultConfig()
	noVictims.NoVictims = true
	for i := 0; i < b.N; i++ {
		with, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		without, err := exp.RunGrayScottVariant(int64(i+1), benchMachine, true, exp.Variant{Arbiter: &noVictims})
		if err != nil {
			b.Fatal(err)
		}
		// With zero free cores, deny-only arbitration cannot fix the
		// under-provisioning while the simulation runs, so the workflow
		// stays slow (only post-completion stragglers may be touched).
		if without.Makespan <= with.Makespan {
			b.Fatalf("deny-only makespan %v not slower than preempting %v", without.Makespan, with.Makespan)
		}
		b.ReportMetric(with.Makespan.Seconds(), "makespan-victims-s")
		b.ReportMetric(without.Makespan.Seconds(), "makespan-deny-s")
	}
}

// BenchmarkAblationGracefulKill quantifies §4.4's note: response times
// shrink significantly when tasks are not allowed to terminate gracefully,
// because ~97% of the response is the graceful drain.
func BenchmarkAblationGracefulKill(b *testing.B) {
	immediate := arbiter.DefaultConfig()
	immediate.ImmediateKill = true
	meanResp := func(res *exp.GSResult) float64 {
		if len(res.W.Plans()) == 0 {
			return 0
		}
		var d time.Duration
		for _, p := range res.W.Plans() {
			d += p.ResponseTime()
		}
		return (d / time.Duration(len(res.W.Plans()))).Seconds()
	}
	for i := 0; i < b.N; i++ {
		graceful, err := exp.RunGrayScott(int64(i+1), benchMachine, true)
		if err != nil {
			b.Fatal(err)
		}
		killed, err := exp.RunGrayScottVariant(int64(i+1), benchMachine, true, exp.Variant{Arbiter: &immediate})
		if err != nil {
			b.Fatal(err)
		}
		g, k := meanResp(graceful), meanResp(killed)
		if k >= g {
			b.Fatalf("immediate kill response %.1fs not faster than graceful %.1fs", k, g)
		}
		b.ReportMetric(g, "response-graceful-s")
		b.ReportMetric(k, "response-kill-s")
	}
}
