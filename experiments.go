package dyflow

import (
	"dyflow/internal/cluster"
	"dyflow/internal/exp"
	"dyflow/specs"
)

func clusterNodeID(s string) cluster.NodeID { return cluster.NodeID(s) }

// The paper's experiments, runnable through the public API. Each returns
// the experiment-specific result plus the full trace via its World.

// Experiment result types.
type (
	// XGCResult is the Figure 6 experiment outcome.
	XGCResult = exp.XGCResult
	// GSResult is the Figure 8/9 experiment outcome.
	GSResult = exp.GSResult
	// LAMMPSResult is the Figure 11 experiment outcome.
	LAMMPSResult = exp.LAMMPSResult
	// CostResult is the §4.6 cost analysis.
	CostResult = exp.CostResult
	// Report is a paper-vs-measured comparison table.
	Report = exp.Report
	// ChaosOptions tunes the seeded fault-injection campaign.
	ChaosOptions = exp.ChaosOptions
	// ChaosResult summarizes one chaos campaign run.
	ChaosResult = exp.ChaosResult
)

// Paper experiment runners and report builders.
var (
	// RunXGC executes the science-driven alternation experiment (Fig. 6).
	RunXGC = exp.RunXGC
	// RunXGCBaseline completes the same step count with XGC1 alone.
	RunXGCBaseline = exp.RunXGCBaseline
	// RunGrayScott executes the under-provisioning experiment (Figs. 8/9).
	RunGrayScott = exp.RunGrayScott
	// RunGrayScottOverProvisioned executes the §4.4 over-provisioning
	// variant.
	RunGrayScottOverProvisioned = exp.RunGrayScottOverProvisioned
	// RunLAMMPS executes the failure-resilience experiment (Fig. 11).
	RunLAMMPS = exp.RunLAMMPS
	// RunCostAnalysis derives the §4.6 cost table.
	RunCostAnalysis = exp.RunCostAnalysis
	// RunChaos runs Gray-Scott under a seeded node-kill/heal campaign with
	// flaky-carve injection and reports whether it still converged (§10 of
	// DESIGN.md).
	RunChaos = exp.RunChaos
	// DefaultChaosOptions is a survivable default campaign.
	DefaultChaosOptions = exp.DefaultChaosOptions

	// XGCReport and friends build paper-vs-measured tables.
	XGCReport           = exp.XGCReport
	GrayScottReport     = exp.GrayScottReport
	Figure1Report       = exp.Figure1Report
	LAMMPSReport        = exp.LAMMPSReport
	CostReport          = exp.CostReport
	OverProvisionReport = exp.OverProvisionReport

	// XGCXML, GrayScottXML and LAMMPSXML return the shipped orchestration
	// documents (complete versions of paper Figures 3-5, 7, 10): the
	// committed files under specs/, which are what the experiments run.
	XGCXML       = specs.XGC
	GrayScottXML = specs.GrayScott
	LAMMPSXML    = specs.LAMMPS
)
