// Package actuate implements DYFLOW's Actuation stage (paper §2.4): the
// low-level operations invoked by Arbitration's final plan, executed
// through a plugin into the static workflow service that talks to the
// cluster. Having Actuation be a plugin keeps the DYFLOW model portable
// across cluster architectures; the production plugin here drives the
// Cheetah/Savanna stand-in (internal/wms).
//
// Actuation is also where transient failure meets the plan: a node can die
// between planning and execution, a carve can come up short, a placement
// can be lost while a start script runs. The Executor classifies each op
// failure as retryable or terminal (see Retryable), retries retryable
// starts with capped exponential backoff — re-carving with the just-failed
// nodes excluded — and, when a plan still fails mid-way, reports exactly
// which operations applied and which START ops never took effect so the
// Arbitration engine can re-enqueue the stranded tasks (DESIGN.md §10).
package actuate

import (
	"errors"
	"fmt"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
)

// Plugin is the low-level operation surface Actuation needs from the
// underlying workflow service: start_task_with_resources, stop_task, and
// get_resource_status. request/release_resources are exposed on the
// concrete plugin for completeness.
type Plugin interface {
	// StartTaskWithResources resolves a concrete healthy placement of the
	// requested shape — never using the excluded nodes — and launches the
	// task, running its user script first. Blocks the calling process for
	// the script duration.
	StartTaskWithResources(p *sim.Proc, workflow, task string, procs, perNode int, script string, exclude []cluster.NodeID) error
	// StopTask signals the task and waits for it to terminate and release
	// its resources. Graceful stops wait for the current timestep.
	StopTask(p *sim.Proc, workflow, task string, graceful bool) error
	// ResourceStatus reports allocation health (get_resource_status).
	ResourceStatus() resmgr.Status
}

// SavannaPlugin adapts the Savanna runtime to the Plugin interface.
type SavannaPlugin struct {
	SV *wms.Savanna
}

// StartTaskWithResources carves a healthy placement avoiding the excluded
// nodes and launches the task. procs/perNode are processes; the carve
// converts them to cores using the task's per-process footprint.
func (sp *SavannaPlugin) StartTaskWithResources(p *sim.Proc, workflow, taskName string, procs, perNode int, script string, exclude []cluster.NodeID) error {
	cpp := sp.SV.CoresPerProc(workflow, taskName)
	rs, err := sp.SV.Manager().Carve(procs*cpp, perNode*cpp, exclude)
	if err != nil {
		return fmt.Errorf("actuate: start %s/%s: %w", workflow, taskName, err)
	}
	return sp.SV.StartTask(p, workflow, taskName, rs, script)
}

// StopTask stops the task and waits for termination.
func (sp *SavannaPlugin) StopTask(p *sim.Proc, workflow, taskName string, graceful bool) error {
	return sp.SV.StopTask(p, workflow, taskName, graceful)
}

// ResourceStatus reports the current allocation status.
func (sp *SavannaPlugin) ResourceStatus() resmgr.Status { return sp.SV.ResourceStatus() }

// Retryable classifies an op failure: transient failures — a carve or
// assignment short on resources (a node may have died between planning and
// execution, or another op's release has not landed yet) and a placement
// lost to node failure during the start script — are worth retrying on a
// fresh carve. Everything else (unknown task, task already running, ...)
// is terminal: retrying would repeat the same deterministic refusal.
func Retryable(err error) bool {
	var pl *wms.PlacementLostError
	return errors.Is(err, resmgr.ErrInsufficient) || errors.As(err, &pl)
}

// lostNodes extracts the nodes a placement-lost failure named, if any.
func lostNodes(err error) []cluster.NodeID {
	var pl *wms.PlacementLostError
	if errors.As(err, &pl) {
		return pl.Nodes
	}
	return nil
}

// RetryPolicy caps the Executor's transient-failure retries of START
// operations. STOP operations are never retried: stopping an already-down
// task is a no-op in the plugin, so a stop either applies or fails
// terminally.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per START op (>= 1).
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy returns the production retry budget: three attempts
// with 2s/4s backoff — enough to ride out a node death racing the plan
// without stretching the response time past the graceful-drain share that
// already dominates it (§4.6).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Backoff: 2 * time.Second, MaxBackoff: 30 * time.Second}
}

// OpRecord times one executed low-level operation; the stop/start split is
// what shows ~97% of response time being graceful-termination wait (§4.6).
type OpRecord struct {
	Op        arbiter.Op
	StartedAt sim.Time
	EndedAt   sim.Time
	Err       string
	// Attempts counts the tries this op took (1 = applied first try);
	// attempts beyond the first are transient-failure retries.
	Attempts int
}

// Duration returns the operation's execution time.
func (r OpRecord) Duration() sim.Time { return r.EndedAt - r.StartedAt }

// Executor applies plans through a plugin, sequentially and in order — the
// ordering produced by Arbitration guarantees operations that release
// resources precede those that acquire them.
type Executor struct {
	plugin  Plugin
	retry   RetryPolicy
	records []OpRecord
	onOp    func(OpRecord)
	tr      *trace.Recorder
}

// NewExecutor creates an Executor over the plugin with the default retry
// policy.
func NewExecutor(plugin Plugin) *Executor {
	return &Executor{plugin: plugin, retry: DefaultRetryPolicy()}
}

// SetRetryPolicy overrides the transient-failure retry budget.
func (ex *Executor) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	ex.retry = p
}

// OnOp registers an observer invoked after each executed operation.
func (ex *Executor) OnOp(fn func(OpRecord)) { ex.onOp = fn }

// SetTracer attaches the flight recorder for per-operation latency.
func (ex *Executor) SetTracer(tr *trace.Recorder) { ex.tr = tr }

// Records returns all executed operations.
func (ex *Executor) Records() []OpRecord { return ex.records }

// startWithRetry applies one START op, retrying transient failures with
// capped exponential backoff. Every attempt excludes the nodes earlier
// attempts lost placements on, plus whatever the allocation currently
// reports unhealthy — so the re-carve never lands back on a node that just
// failed, even if a heal races the retry.
func (ex *Executor) startWithRetry(p *sim.Proc, op arbiter.Op) (attempts int, err error) {
	var exclude []cluster.NodeID
	excluded := make(map[cluster.NodeID]bool)
	addExclude := func(ids []cluster.NodeID) {
		for _, id := range ids {
			if !excluded[id] {
				excluded[id] = true
				exclude = append(exclude, id)
			}
		}
	}
	backoff := ex.retry.Backoff
	for attempt := 1; ; attempt++ {
		addExclude(ex.plugin.ResourceStatus().UnhealthyNodes)
		err = ex.plugin.StartTaskWithResources(p, op.Workflow, op.Task, op.Procs, op.PerNode, op.Script, cluster.SortNodeIDs(exclude))
		if err == nil {
			if attempt > 1 {
				ex.tr.Inc("actuate.recovered_ops", 1)
			}
			return attempt, nil
		}
		addExclude(lostNodes(err))
		if attempt >= ex.retry.MaxAttempts || !Retryable(err) {
			return attempt, err
		}
		ex.tr.Inc("actuate.retries", 1)
		if backoff > 0 {
			if serr := p.SleepUninterruptible(backoff); serr != nil {
				if errors.Is(serr, sim.ErrStopped) {
					return attempt, serr
				}
				return attempt, err
			}
			backoff *= 2
			if ex.retry.MaxBackoff > 0 && backoff > ex.retry.MaxBackoff {
				backoff = ex.retry.MaxBackoff
			}
		}
	}
}

// Execute applies the plan's operations in order, blocking the calling
// process. Retryable START failures are retried within the policy budget;
// the first terminally failing operation aborts the remainder. The report
// states how much of the plan applied and which START ops never took
// effect, so the engine can recover the tasks they were meant to launch.
func (ex *Executor) Execute(p *sim.Proc, plan arbiter.Plan) (arbiter.ExecReport, error) {
	var rep arbiter.ExecReport
	for i, op := range plan.Ops {
		rec := OpRecord{Op: op, StartedAt: p.Now(), Attempts: 1}
		var err error
		switch op.Kind {
		case arbiter.OpStop:
			err = ex.plugin.StopTask(p, op.Workflow, op.Task, op.Graceful)
		case arbiter.OpStart:
			rec.Attempts, err = ex.startWithRetry(p, op)
		default:
			err = fmt.Errorf("actuate: unknown op kind %v", op.Kind)
		}
		if errors.Is(err, sim.ErrStopped) {
			return rep, err // sim.Stop mid-op: it neither applied nor failed
		}
		rec.EndedAt = p.Now()
		if err != nil {
			rec.Err = err.Error()
			ex.tr.Inc("actuate.failed_ops", 1)
		}
		ex.tr.OpExecuted(op.Kind.String(), rec.StartedAt, rec.EndedAt)
		ex.tr.Inc("actuate.ops", 1)
		ex.records = append(ex.records, rec)
		if ex.onOp != nil {
			ex.onOp(rec)
		}
		if err != nil {
			// The failed op and everything after it never applied; collect
			// the START ops among them for the engine's recovery queue.
			rep.Aborted = len(plan.Ops) - i
			for _, rest := range plan.Ops[i:] {
				if rest.Kind == arbiter.OpStart {
					rep.UnappliedStarts = append(rep.UnappliedStarts, rest)
				}
			}
			return rep, fmt.Errorf("actuate: %s %s/%s: %w", op.Kind, op.Workflow, op.Task, err)
		}
		rep.Applied++
	}
	return rep, nil
}

// StopShare computes the fraction of total execution time spent in stop
// operations (graceful-termination waits) across all records.
func (ex *Executor) StopShare() float64 {
	var stop, total sim.Time
	for _, r := range ex.records {
		d := r.Duration()
		total += d
		if r.Op.Kind == arbiter.OpStop {
			stop += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(stop) / float64(total)
}
