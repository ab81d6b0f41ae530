// Package spec defines DYFLOW's XML user interface — the document format
// scientific end users write to program the Monitor, Decision, and
// Arbitration stages (paper §3, Figures 3, 4, 5, 7, 10) — together with the
// typed vocabulary (source types, granularities, actions, comparison
// operators) shared by the stage engines, validation of cross-references,
// and compilation into the resolved configuration the orchestrator runs.
package spec

import (
	"fmt"
	"strings"
)

// SourceType determines how a sensor's data of interest is generated and
// exchanged at runtime (paper §2.1 "Source type").
type SourceType int

const (
	// SourceTAUADIOS2 streams TAU profiler records over ADIOS2 (the PACE
	// sensor in Figure 3).
	SourceTAUADIOS2 SourceType = iota
	// SourceADIOS2 streams application data over ADIOS2 (the ERROR sensor
	// in Figure 7).
	SourceADIOS2
	// SourceDiskScan scans the filesystem with a glob pattern and reads a
	// variable from matching files (the NSTEPS sensor in Figure 7).
	SourceDiskScan
	// SourceErrorStatus reads the scheduler-written exit-status file of a
	// task (the STATUS sensor in Figure 10).
	SourceErrorStatus
	// SourceDB polls the latest record for a key in the in-cluster
	// database service (the third source medium of §2.1).
	SourceDB
)

var sourceNames = map[SourceType]string{
	SourceTAUADIOS2:   "TAUADIOS2",
	SourceADIOS2:      "ADIOS2",
	SourceDiskScan:    "DISKSCAN",
	SourceErrorStatus: "ERRORSTATUS",
	SourceDB:          "DB",
}

// String returns the XML name.
func (s SourceType) String() string { return sourceNames[s] }

// ParseSourceType converts an XML source-type name.
func ParseSourceType(name string) (SourceType, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for st, n := range sourceNames {
		if n == up {
			return st, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown sensor source type %q", name)
}

// Granularity selects how the Monitor stage's group-by organizes collected
// data before reduction (paper §2.1 "Group-by and reduction").
type Granularity int

const (
	// GranTask groups data from all processes of one task.
	GranTask Granularity = iota
	// GranNodeTask groups data from processes of one task sharing a node.
	GranNodeTask
	// GranWorkflow groups data from all tasks of the workflow.
	GranWorkflow
	// GranNodeWorkflow groups data from all workflow processes sharing a
	// node.
	GranNodeWorkflow
)

// granNames is indexed by Granularity.
var granNames = [...]string{
	GranTask:         "task",
	GranNodeTask:     "node-task",
	GranWorkflow:     "workflow",
	GranNodeWorkflow: "node-workflow",
}

// String returns the XML name.
func (g Granularity) String() string {
	if g < 0 || int(g) >= len(granNames) {
		return ""
	}
	return granNames[g]
}

// ParseGranularity converts an XML granularity name. The Monitor server and
// Decision parse one per update, and those carry the canonical name, so an
// exact match is tried before case folding and trimming.
func ParseGranularity(name string) (Granularity, error) {
	if g, ok := granularityNamed(name); ok {
		return g, nil
	}
	if g, ok := granularityNamed(strings.ToLower(strings.TrimSpace(name))); ok {
		return g, nil
	}
	return 0, fmt.Errorf("spec: unknown granularity %q", name)
}

func granularityNamed(name string) (Granularity, bool) {
	for g, n := range granNames {
		if n == name {
			return Granularity(g), true
		}
	}
	return 0, false
}

// Action is a high-level operation a policy suggests in response to an
// event of interest (paper §2.2 "Suggested action").
type Action int

const (
	// ActionAddCPU increases the CPUs (= processes) assigned to a task.
	ActionAddCPU Action = iota
	// ActionRmCPU decreases the CPUs assigned to a task.
	ActionRmCPU
	// ActionStop terminates a running task.
	ActionStop
	// ActionStart starts a task that is not running.
	ActionStart
	// ActionRestart stops and restarts the current task.
	ActionRestart
	// ActionSwitch stops a running task and starts a replacement task.
	ActionSwitch
)

var actionNames = map[Action]string{
	ActionAddCPU:  "ADDCPU",
	ActionRmCPU:   "RMCPU",
	ActionStop:    "STOP",
	ActionStart:   "START",
	ActionRestart: "RESTART",
	ActionSwitch:  "SWITCH",
}

// String returns the XML name.
func (a Action) String() string { return actionNames[a] }

// ParseAction converts an XML action name.
func ParseAction(name string) (Action, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for a, n := range actionNames {
		if n == up {
			return a, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown action %q", name)
}

// CompareOp is a policy evaluation condition's comparison operator.
type CompareOp int

const (
	// OpGT fires when the metric exceeds the threshold.
	OpGT CompareOp = iota
	// OpLT fires when the metric is below the threshold.
	OpLT
	// OpEQ fires when the metric equals the threshold.
	OpEQ
	// OpGE fires when the metric is at least the threshold.
	OpGE
	// OpLE fires when the metric is at most the threshold.
	OpLE
	// OpNE fires when the metric differs from the threshold.
	OpNE
)

var cmpNames = map[CompareOp]string{
	OpGT: "GT", OpLT: "LT", OpEQ: "EQ", OpGE: "GE", OpLE: "LE", OpNE: "NE",
}

// String returns the XML name.
func (op CompareOp) String() string { return cmpNames[op] }

// ParseCompareOp converts an XML comparison name.
func ParseCompareOp(name string) (CompareOp, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for op, n := range cmpNames {
		if n == up {
			return op, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown comparison operation %q", name)
}

// Compare applies the operator.
func (op CompareOp) Compare(value, threshold float64) bool {
	switch op {
	case OpGT:
		return value > threshold
	case OpLT:
		return value < threshold
	case OpEQ:
		return value == threshold
	case OpGE:
		return value >= threshold
	case OpLE:
		return value <= threshold
	case OpNE:
		return value != threshold
	default:
		return false
	}
}

// JoinOp combines two sensor outputs into a derived metric (paper §2.1
// "Join", e.g. IPC = instructions DIV cycles).
type JoinOp int

const (
	// JoinDiv divides this sensor's output by the joined sensor's.
	JoinDiv JoinOp = iota
	// JoinMul multiplies the two outputs.
	JoinMul
	// JoinAdd adds them.
	JoinAdd
	// JoinSub subtracts the joined output from this sensor's.
	JoinSub
)

var joinNames = map[JoinOp]string{
	JoinDiv: "DIV", JoinMul: "MUL", JoinAdd: "ADD", JoinSub: "SUB",
}

// String returns the XML name.
func (op JoinOp) String() string { return joinNames[op] }

// ParseJoinOp converts an XML join operation name.
func ParseJoinOp(name string) (JoinOp, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for op, n := range joinNames {
		if n == up {
			return op, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown join operation %q", name)
}

// Apply computes the joined value.
func (op JoinOp) Apply(a, b float64) float64 {
	switch op {
	case JoinDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case JoinMul:
		return a * b
	case JoinAdd:
		return a + b
	case JoinSub:
		return a - b
	default:
		return 0
	}
}

// DepType classifies a task inter-dependency (paper §2.3).
type DepType int

const (
	// DepTight means the dependent runs concurrently with its parent and
	// receives data via an in situ medium; restarting the parent restarts
	// the dependent.
	DepTight DepType = iota
	// DepLoose means the dependent runs uncoupled and exchanges data via
	// disk.
	DepLoose
)

var depNames = map[DepType]string{DepTight: "TIGHT", DepLoose: "LOOSE"}

// String returns the XML name.
func (d DepType) String() string { return depNames[d] }

// ParseDepType converts an XML dependency type name.
func ParseDepType(name string) (DepType, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for d, n := range depNames {
		if n == up {
			return d, nil
		}
	}
	return 0, fmt.Errorf("spec: unknown dependency type %q", name)
}
