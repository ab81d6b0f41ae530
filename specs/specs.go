// Package specs holds the shipped orchestration documents, the complete
// versions of the paper's Figures 3–5, 7 and 10. Each document is one
// file in this directory, embedded as written: the scenarios run these
// bytes, so editing a file changes what runs. A document the machine does
// not change is one file for both machines.
package specs

import (
	_ "embed"

	"dyflow/internal/apps"
)

var (
	//go:embed xgc.xml
	xgc string
	//go:embed lammps.xml
	lammps string
	//go:embed grayscott-summit.xml
	grayScottSummit string
	//go:embed grayscott-dt2.xml
	grayScottDT2 string
)

// XGC is the orchestration document for the XGC1/XGCa alternation, the
// same on both machines (paper Figure 7). The paper's RESTART_UNTIL_COND
// is expressed with a derived LAG metric (a sensor join of the task-level
// NSTEPS against the workflow-level front): a code whose own output is
// strictly behind the workflow front is the one whose turn is next, which
// is exactly the alternation the prose describes. SWITCH_ON_COND uses the
// paper's proxy error condition (global step 374); STOP_ON_COND ends the
// experiment past step 500.
func XGC(apps.Machine) string { return xgc }

// GrayScott is the orchestration document for the Gray-Scott workflow
// (paper Figures 3, 4 and 5). The machines differ in the PACE thresholds
// and the resize step: Summit's 36 s/24 s by 20 processes, Deepthought2's
// 42 s/28 s by 40.
func GrayScott(m apps.Machine) string {
	if m == apps.Summit {
		return grayScottSummit
	}
	return grayScottDT2
}

// LAMMPS is the orchestration document for the failure-resilience
// experiment, the same on both machines (paper Figure 10): a STATUS sensor
// over the scheduler-written exit files and a RESTART_ON_FAILURE policy
// per task firing on exit codes above 128 (signal deaths).
func LAMMPS(apps.Machine) string { return lammps }
