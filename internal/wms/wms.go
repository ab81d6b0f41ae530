// Package wms is the workflow management system DYFLOW plugs into — the
// stand-in for Cheetah/Savanna in the paper's implementation. Cheetah's
// role (workflow composition) is covered by WorkflowSpec/TaskConfig;
// Savanna's role (talking to the cluster scheduler, allocating resources,
// spawning tasks on compute nodes, saving exit status) is covered by
// Savanna, whose methods are the low-level operations of the paper's
// Savanna API: start_task_with_resources, stop_task, signal_task,
// release_resources, get_resource_status. Its request_resources is the
// resource manager's Allocate: on-demand nodes are not commonplace on
// supercomputers, so experiments pre-allocate spares.
package wms

import (
	"errors"
	"fmt"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/obs"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// TaskConfig composes one task into a workflow: its behavioural spec plus
// its initial launch shape.
type TaskConfig struct {
	Spec task.Spec
	// Procs is the initial process count.
	Procs int
	// ProcsPerNode is the placement shape (e.g. Table 2's "34 per node");
	// 0 packs nodes.
	ProcsPerNode int
	// CoresPerProc is how many cores one process occupies (ceil of its
	// thread count over the hardware SMT width); 0 means 1. XGC's 14
	// 10-thread processes per 42-core Summit node occupy 3 cores each,
	// filling the node — which is why XGC1 and XGCa can never run
	// concurrently and one waits for the other's resources.
	CoresPerProc int
	// AutoStart launches the task when the workflow launches. Tasks that
	// wait in a queue initially (XGCa in §4.3) set this false and are
	// started later by a policy action.
	AutoStart bool
	// StartScript names a user script run before each (re)start of the
	// task (the paper's restart-xgc.sh); costs are registered with
	// Savanna.RegisterScript.
	StartScript string
}

// WorkflowSpec is a composed workflow (Cheetah's output).
type WorkflowSpec struct {
	ID    string
	Tasks []TaskConfig
}

// EventKind classifies task lifecycle events reported by Savanna.
type EventKind int

const (
	// TaskStarted fires when an incarnation is launched.
	TaskStarted EventKind = iota
	// TaskEnded fires when an incarnation terminates (any reason) and its
	// resources have been returned to the pool.
	TaskEnded
)

// Event is a task lifecycle notification.
type Event struct {
	Kind     EventKind
	Workflow string
	Task     string
	Instance *task.Instance
	At       sim.Time
}

// PlacementLostError reports a start whose assigned placement was lost to
// node failures while the user script ran. It is transient: the caller can
// re-carve on surviving nodes, excluding the ones named here (which may
// read healthy again by retry time if the cluster healed them).
type PlacementLostError struct {
	Workflow string
	Task     string
	// Nodes lists the assigned nodes that failed under the launch.
	Nodes []cluster.NodeID
}

func (e *PlacementLostError) Error() string {
	return fmt.Sprintf("wms: start %s/%s: placement lost to node failure on %v", e.Workflow, e.Task, e.Nodes)
}

// taskRT tracks the runtime of one composed task.
type taskRT struct {
	cfg         TaskConfig
	inst        *task.Instance // current incarnation, nil before first start
	incarnation int            // next incarnation number
	released    bool           // current incarnation's resources returned
}

// Savanna launches and controls workflow tasks on the allocation managed by
// a resmgr.Manager. All mutating methods that can block (starting with a
// user script, stopping with graceful drain) take the calling simulated
// process.
type Savanna struct {
	env *task.Env
	rm  *resmgr.Manager

	workflows map[string]*WorkflowSpec
	tasks     map[string]*taskRT   // key: workflow + "/" + task
	wfTasks   map[string][]*taskRT // per workflow, in composition order
	scripts   map[string]time.Duration
	subs      []func(Event)

	mStarts          *obs.CounterVec // dyflow_wms_task_starts_total{task}
	mStops           *obs.CounterVec // dyflow_wms_task_stops_total{task}
	mPlacementLosses *obs.Counter    // dyflow_wms_placement_losses_total
	mRunning         *obs.Gauge      // dyflow_wms_running_tasks
}

// New creates a Savanna runtime over env and rm, registering the WMS task
// lifecycle families in reg. Node failures reported by the resource
// manager crash the affected incarnations with exit code 137, which is how
// the ERRORSTATUS sensor learns about them.
func New(env *task.Env, rm *resmgr.Manager, reg *obs.Registry) *Savanna {
	sv := &Savanna{
		env:       env,
		rm:        rm,
		workflows: make(map[string]*WorkflowSpec),
		tasks:     make(map[string]*taskRT),
		wfTasks:   make(map[string][]*taskRT),
		scripts:   make(map[string]time.Duration),

		mStarts: reg.Counter("dyflow_wms_task_starts_total", "Task incarnations launched.", "task"),
		mStops:  reg.Counter("dyflow_wms_task_stops_total", "Task incarnations ended (any reason).", "task"),
		mPlacementLosses: reg.Counter("dyflow_wms_placement_losses_total",
			"Starts whose placement was lost to node failure during the user script.").With(),
		mRunning: reg.Gauge("dyflow_wms_running_tasks", "Live task incarnations.").With(),
	}
	rm.OnResourceLoss(sv.resourceLost)
	return sv
}

// Manager returns the resource manager (Arbitration consults it directly
// for resource bookkeeping).
func (sv *Savanna) Manager() *resmgr.Manager { return sv.rm }

// OnEvent subscribes to task lifecycle events.
func (sv *Savanna) OnEvent(fn func(Event)) { sv.subs = append(sv.subs, fn) }

// RegisterScript declares the runtime cost of a user script referenced by
// start actions (the paper's restart-xgc1.sh accounts for XGC1's longer
// start response).
func (sv *Savanna) RegisterScript(name string, cost time.Duration) {
	sv.scripts[name] = cost
}

func (sv *Savanna) emit(ev Event) {
	ev.At = sv.env.Sim.Now()
	for _, fn := range sv.subs {
		fn(ev)
	}
}

func key(workflow, taskName string) string { return workflow + "/" + taskName }

// Compose registers a workflow specification. It rejects a task whose
// OutputPattern task.Launch would not accept, registering nothing.
func (sv *Savanna) Compose(spec *WorkflowSpec) error {
	if _, ok := sv.workflows[spec.ID]; ok {
		return fmt.Errorf("wms: workflow %q already composed", spec.ID)
	}
	for _, cfg := range spec.Tasks {
		if err := task.CheckOutputPattern(cfg.Spec.OutputPattern); err != nil {
			return fmt.Errorf("wms: workflow %q task %q: %w", spec.ID, cfg.Spec.Name, err)
		}
	}
	sv.workflows[spec.ID] = spec
	for _, cfg := range spec.Tasks {
		rt := &taskRT{cfg: cfg}
		sv.tasks[key(spec.ID, cfg.Spec.Name)] = rt
		sv.wfTasks[spec.ID] = append(sv.wfTasks[spec.ID], rt)
	}
	return nil
}

// Workflow returns a composed workflow spec, or nil.
func (sv *Savanna) Workflow(id string) *WorkflowSpec { return sv.workflows[id] }

// launchAttempts bounds Launch's carves per task. A carve short on
// resources is tried again at once: a chaos campaign's injected carve
// faults are transient (each try draws anew), while a real shortage fails
// every try the same way.
const launchAttempts = 3

// Launch starts every AutoStart task of the workflow with its configured
// shape, in composition order. It must be called from a simulated process.
func (sv *Savanna) Launch(p *sim.Proc, workflowID string) error {
	spec, ok := sv.workflows[workflowID]
	if !ok {
		return fmt.Errorf("wms: unknown workflow %q", workflowID)
	}
	for _, cfg := range spec.Tasks {
		if !cfg.AutoStart {
			continue
		}
		cpp := cfg.CoresPerProc
		if cpp <= 0 {
			cpp = 1
		}
		rs, err := sv.rm.Carve(cfg.Procs*cpp, cfg.ProcsPerNode*cpp, nil)
		for try := 1; try < launchAttempts && errors.Is(err, resmgr.ErrInsufficient); try++ {
			rs, err = sv.rm.Carve(cfg.Procs*cpp, cfg.ProcsPerNode*cpp, nil)
		}
		if err != nil {
			return fmt.Errorf("wms: launch %s/%s: %w", workflowID, cfg.Spec.Name, err)
		}
		if err := sv.StartTask(p, workflowID, cfg.Spec.Name, rs, cfg.StartScript); err != nil {
			return err
		}
	}
	return nil
}

// CoresPerProc returns the task's per-process core footprint (>= 1).
func (sv *Savanna) CoresPerProc(workflowID, taskName string) int {
	rt, ok := sv.tasks[key(workflowID, taskName)]
	if !ok || rt.cfg.CoresPerProc <= 0 {
		return 1
	}
	return rt.cfg.CoresPerProc
}

// Instance returns the current incarnation of a task (nil if never
// started).
func (sv *Savanna) Instance(workflowID, taskName string) *task.Instance {
	rt := sv.tasks[key(workflowID, taskName)]
	if rt == nil {
		return nil
	}
	return rt.inst
}

// TaskRunning reports whether the task currently has a live incarnation.
func (sv *Savanna) TaskRunning(workflowID, taskName string) bool {
	in := sv.Instance(workflowID, taskName)
	return in != nil && in.Alive()
}

// AnyRunning reports whether any task of the workflow has a live
// incarnation. Experiment drivers poll it every simulated second, so it
// does not allocate.
func (sv *Savanna) AnyRunning(workflowID string) bool {
	for _, rt := range sv.wfTasks[workflowID] {
		if rt.inst != nil && rt.inst.Alive() {
			return true
		}
	}
	return false
}

// StartTask implements start_task_with_resources: assign rs to the task,
// run the optional user script, and spawn the incarnation. The process
// count and placement derive from rs (one process per core). It must be
// called from a simulated process; the script cost is paid inline.
func (sv *Savanna) StartTask(p *sim.Proc, workflowID, taskName string, rs resmgr.ResourceSet, script string) error {
	k := key(workflowID, taskName)
	rt, ok := sv.tasks[k]
	if !ok {
		return fmt.Errorf("wms: unknown task %s/%s", workflowID, taskName)
	}
	if rt.inst != nil && rt.inst.Alive() {
		return fmt.Errorf("wms: task %s/%s already running", workflowID, taskName)
	}
	if rs.Total() == 0 {
		return fmt.Errorf("wms: task %s/%s started with no resources", workflowID, taskName)
	}
	// Assign BEFORE running the user script: the carve was validated against
	// resources at plan time, and a node failure during the (possibly long)
	// script must surface as a placement loss on this launch — not let the
	// launch proceed onto a carve that no longer exists, or fail with a
	// confusing ErrInsufficient after resources were available at plan time.
	if err := sv.rm.Assign(k, rs); err != nil {
		return err
	}
	if script != "" {
		if cost, ok := sv.scripts[script]; ok && cost > 0 {
			if err := p.SleepUninterruptible(cost); err != nil {
				if !errors.Is(err, sim.ErrStopped) { // sim.Stop: leave the world as it stands
					sv.rm.Release(k)
				}
				return err
			}
		}
	}
	// Node deaths during the script trimmed the assignment (resourceLost);
	// launching on the partial carve would run fewer ranks than planned.
	// Release the remnant and report which nodes were lost so the caller
	// can re-carve around them.
	if lost, whole := sv.rm.Short(k, rs); !whole {
		sv.rm.Release(k)
		sv.mPlacementLosses.Inc()
		return &PlacementLostError{Workflow: workflowID, Task: taskName, Nodes: lost}
	}
	cpp := rt.cfg.CoresPerProc
	if cpp <= 0 {
		cpp = 1
	}
	placement := make(task.Placement, len(rs))
	for node, cores := range rs {
		if n := cores / cpp; n > 0 {
			placement[node] = n
		}
	}
	inc := rt.incarnation
	rt.incarnation++
	rt.released = false
	inst := task.Launch(sv.env, rt.cfg.Spec, placement, inc)
	rt.inst = inst
	sv.mStarts.With(k).Inc()
	sv.mRunning.Add(1)
	sv.emit(Event{Kind: TaskStarted, Workflow: workflowID, Task: taskName, Instance: inst})

	// Watcher: when the incarnation ends for any reason, return its
	// resources exactly once and report the end.
	sv.env.Sim.Spawn("savanna-watch", func(wp *sim.Proc) {
		if err := wp.Join(inst.Proc()); errors.Is(err, sim.ErrStopped) {
			return // the simulation ended first (sim.Stop): nothing ended, nothing to report
		}
		if rt.inst == inst && !rt.released {
			sv.rm.Release(k)
			rt.released = true
		}
		sv.mStops.With(k).Inc()
		sv.mRunning.Add(-1)
		sv.emit(Event{Kind: TaskEnded, Workflow: workflowID, Task: taskName, Instance: inst})
	})
	return nil
}

// StopTask implements stop_task: signal the incarnation (gracefully by
// default — SIGTERM then let it finish its timestep) and wait for it to
// terminate and its resources to return. The wait is the dominant share of
// DYFLOW's response time (§4.6).
func (sv *Savanna) StopTask(p *sim.Proc, workflowID, taskName string, graceful bool) error {
	rt, ok := sv.tasks[key(workflowID, taskName)]
	if !ok {
		return fmt.Errorf("wms: unknown task %s/%s", workflowID, taskName)
	}
	inst := rt.inst
	if inst == nil || !inst.Alive() {
		return nil // already down
	}
	inst.Stop(graceful)
	if err := p.Join(inst.Proc()); err != nil {
		return err
	}
	if rt.inst == inst && !rt.released {
		sv.rm.Release(key(workflowID, taskName))
		rt.released = true
	}
	return nil
}

// SignalTask implements signal_*_task for signals that do not terminate
// the incarnation's resources — currently a generic interrupt delivery.
func (sv *Savanna) SignalTask(workflowID, taskName string, cause error) error {
	inst := sv.Instance(workflowID, taskName)
	if inst == nil || !inst.Alive() {
		return fmt.Errorf("wms: task %s/%s not running", workflowID, taskName)
	}
	inst.Proc().Interrupt(cause)
	return nil
}

// ReleaseResources implements release_resources.
func (sv *Savanna) ReleaseResources(ids []cluster.NodeID) error {
	return sv.rm.ReleaseNodes(ids)
}

// UnhealthyNodes implements get_resource_status: the allocated nodes
// currently out of service.
func (sv *Savanna) UnhealthyNodes() []cluster.NodeID { return sv.rm.UnhealthyNodes() }

// resourceLost crashes the incarnation owning cores on a failed node. An
// MPI job losing any of its ranks aborts entirely, so the whole instance
// fails with a signal-style exit code (137 = 128+SIGKILL). The watcher then
// releases the surviving cores.
func (sv *Savanna) resourceLost(owner string, node cluster.NodeID, lost int) {
	rt, ok := sv.tasks[owner]
	if !ok {
		return
	}
	if rt.inst != nil && rt.inst.Alive() {
		rt.inst.Crash(137)
	}
}
