// Package dyflow is a reproduction of "DYFLOW: A flexible framework for
// orchestrating scientific workflows on supercomputers" (ICPP 2021): a
// policy-driven dynamic orchestration service that monitors running
// workflow tasks, evaluates user-defined policies against the resulting
// metrics, arbitrates the suggested actions into a feasible plan, and
// actuates the plan through a workflow management system.
//
// Because the paper's environment (ORNL Summit, real XGC/Gray-Scott/LAMMPS
// executables, TAU, ADIOS2) is not reproducible on a laptop, the framework
// runs on a deterministic discrete-event simulation substrate: simulated
// clusters, a resource manager, MPI-style tasks with Amdahl cost models and
// in situ staging streams, a virtual filesystem, and a JSON message bus.
// DYFLOW itself — sensors, policies, Algorithm 1 arbitration, pluggable
// actuation, and the XML user interface — is implemented in full on top.
//
// The public surface is a System: a complete simulated deployment.
//
//	sys, _ := dyflow.NewSystem(42, dyflow.Summit, 10)
//	defer sys.Close()
//	sys.Compose(dyflow.GrayScottWorkflow(dyflow.Summit))
//	sys.StartOrchestration(xmlSpec, dyflow.Options{})
//	sys.Launch("GS-WORKFLOW")
//	sys.Run(30 * time.Minute)
//	sys.WriteGantt(os.Stdout, 100)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured reproduction of every table and figure.
package dyflow

import (
	"io"
	"os"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/exp"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
)

// Machine selects one of the paper's evaluation clusters.
type Machine = apps.Machine

// The two evaluation machines.
const (
	Summit       = apps.Summit
	Deepthought2 = apps.Deepthought2
)

// Core workflow-composition types (Cheetah's role).
type (
	// WorkflowSpec composes tasks into a workflow.
	WorkflowSpec = wms.WorkflowSpec
	// TaskConfig composes one task: behaviour spec plus launch shape.
	TaskConfig = wms.TaskConfig
	// TaskSpec declares a simulated task's behaviour.
	TaskSpec = task.Spec
	// Cost is the per-timestep cost model (serial + work/procs).
	Cost = task.Cost
	// Options tunes the orchestrator (monitor sharding, sensor costs,
	// arbitration guards, bus latency).
	Options = core.Options
	// ArbiterConfig tunes Arbitration's warm-up/settle/gather guards.
	ArbiterConfig = arbiter.Config
	// PlanRecord documents one arbitration round.
	PlanRecord = arbiter.Record
	// MetricKey identifies one metric series.
	MetricKey = sensor.Key
	// Config is a compiled orchestration specification.
	Config = spec.Config
	// StageReport is the flight recorder's §4.6-style per-stage latency
	// breakdown (see System.TraceReport).
	StageReport = trace.Report
	// StageSpan is one suggestion's lifecycle, as StageReport holds it.
	StageSpan = trace.SpanRecord
)

// Paper workflow builders (Tables 1-3).
var (
	// XGCWorkflow composes the XGC1/XGCa alternation workflow (Table 1).
	XGCWorkflow = apps.XGCWorkflow
	// GrayScottWorkflow composes the Gray-Scott in situ workflow (Table 2).
	GrayScottWorkflow = apps.GrayScottWorkflow
	// LAMMPSWorkflow composes the LAMMPS analysis workflow (Table 3).
	LAMMPSWorkflow = apps.LAMMPSWorkflow
)

// CompileSpec parses and validates a DYFLOW XML document.
func CompileSpec(xml string) (*Config, error) { return spec.CompileString(xml) }

// System is a complete simulated deployment: cluster, resource manager,
// Savanna workflow service, and (once started) the DYFLOW orchestrator.
type System struct {
	w *exp.World
}

// NewSystem builds a system on the given machine with nodes allocated to
// the job. The seed fixes every stochastic choice; equal seeds give
// identical runs. A system keeps every metric series its Monitor forwards,
// for MetricSeries and DumpTrace.
func NewSystem(seed int64, m Machine, nodes int) (*System, error) {
	w, err := exp.NewWorld(seed, m, nodes)
	if err != nil {
		return nil, err
	}
	w.Rec.Keep(func(sensor.Key) bool { return true })
	return &System{w: w}, nil
}

// Close releases the system: the simulation stops and its process
// goroutines exit, so the system can be garbage-collected. Everything
// recorded so far stays readable (Gantt, plans, series, trace), but the
// system does not run again. Idempotent; defer it after NewSystem.
func (s *System) Close() { s.w.Close() }

// Compose registers a workflow.
func (s *System) Compose(wf *WorkflowSpec) error { return s.w.SV.Compose(wf) }

// RegisterScript declares the runtime cost of a user script referenced by
// start actions.
func (s *System) RegisterScript(name string, cost time.Duration) {
	s.w.SV.RegisterScript(name, cost)
}

// StartOrchestration compiles the XML orchestration document and starts
// DYFLOW's four stages. Call before Launch.
func (s *System) StartOrchestration(xml string, opts Options) error {
	return s.w.StartOrchestration(xml, opts)
}

// StartOrchestrationFile reads the XML document from a file.
func (s *System) StartOrchestrationFile(path string, opts Options) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.w.StartOrchestration(string(data), opts)
}

// Launch starts the named workflows.
func (s *System) Launch(workflows ...string) { s.w.Launch(workflows...) }

// Run advances virtual time to the horizon.
func (s *System) Run(horizon time.Duration) error { return s.w.Run(horizon) }

// RunUntilWorkflowDone advances until the workflow has no running tasks or
// the horizon passes, returning when it finished.
func (s *System) RunUntilWorkflowDone(workflowID string, horizon time.Duration) (time.Duration, error) {
	t, err := s.w.RunUntilWorkflowDone(workflowID, horizon)
	return time.Duration(t), err
}

// Now returns the current virtual time.
func (s *System) Now() time.Duration { return time.Duration(s.w.Sim.Now()) }

// Plans returns the arbitration rounds executed so far.
func (s *System) Plans() []PlanRecord {
	if s.w.Orch == nil {
		return nil
	}
	return s.w.Orch.Arbiter.Records()
}

// TraceReport builds the flight recorder's per-stage latency breakdown:
// suggestion lifecycle spans (GeneratedAt → ObservedAt → DecidedAt →
// ReceivedAt → PlannedAt → ExecutedAt), per-sensor detection lags,
// actuation operation latencies, stage counters, and bus queue depths —
// the reproduction of the paper's §4.6 cost analysis. Returns an empty
// report when orchestration was never started.
func (s *System) TraceReport() *StageReport {
	if s.w.Orch == nil {
		return &StageReport{}
	}
	return s.w.Orch.Trace.Report()
}

// TaskRunning reports whether a task currently has a live incarnation.
func (s *System) TaskRunning(workflow, taskName string) bool {
	return s.w.SV.TaskRunning(workflow, taskName)
}

// TaskProcs returns the process count of the task's current (or last)
// incarnation, 0 if never started.
func (s *System) TaskProcs(workflow, taskName string) int {
	in := s.w.SV.Instance(workflow, taskName)
	if in == nil {
		return 0
	}
	return in.Placement.Procs()
}

// WriteGantt renders the run's Gantt chart (tasks over virtual time with
// DYFLOW's adjustment windows).
func (s *System) WriteGantt(w io.Writer, width int) {
	s.w.Rec.CloseOpen()
	s.w.Rec.Gantt(w, width)
}

// WritePlanSummary renders the arbitration rounds as a table.
func (s *System) WritePlanSummary(w io.Writer) { s.w.Rec.PlanSummary(w) }

// MetricSeries returns the values of one sensor metric for a task as
// Decision received them (empty task selects workflow-level series).
func (s *System) MetricSeries(workflow, taskName, sensorID string) []MetricPoint {
	var out []MetricPoint
	for _, m := range s.w.Rec.Series(workflow, taskName, sensorID) {
		out = append(out, MetricPoint{At: time.Duration(m.At), Value: m.Value, Step: m.Step})
	}
	return out
}

// MetricPoint is one observed metric value.
type MetricPoint struct {
	At    time.Duration
	Value float64
	Step  int
}

// FailNodeAt schedules a node failure (failure-injection entry point).
func (s *System) FailNodeAt(at time.Duration, node string) {
	s.w.Cluster.FailNodeAt(sim.Time(at), clusterNodeID(node))
}

// World exposes the underlying experiment world for advanced use (the
// cmd/ tools and benchmarks use it; examples should not need it).
func (s *System) World() *exp.World { return s.w }

// TraceDump is the portable JSON form of a recorded run.
type TraceDump = exp.TraceDump

// DumpTrace exports the run's trace (intervals, plans, metric series).
func (s *System) DumpTrace() *TraceDump {
	s.w.Rec.CloseOpen()
	return s.w.Rec.Dump()
}

// LoadTraceDump reads a trace written by TraceDump.WriteFile.
func LoadTraceDump(path string) (*TraceDump, error) { return exp.LoadTraceDump(path) }
