// Package arbiter implements DYFLOW's Arbitration stage (paper §2.3 and
// Algorithm 1): it screens the high-level actions suggested by Decision,
// resolves conflicts with policy priorities, pulls in dependent actions via
// task inter-dependencies, maps everything to low-level operations, makes
// the plan feasible against available resources by preempting low-priority
// victims or discarding the least significant operations, gives waiting
// tasks a chance to start when resources free up, and finally orders the
// operations so that releases precede acquisitions.
//
// BuildPlan is a pure function over a PlanInput snapshot so the protocol's
// branches are directly testable; Engine (engine.go) wraps it with the
// runtime state collection, warm-up/settle guards, and execution handoff.
package arbiter

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/sim"
)

// OpKind is a low-level operation type.
type OpKind int

const (
	// OpStop terminates a running task (stop_task).
	OpStop OpKind = iota
	// OpStart launches a task with a resource shape
	// (start_task_with_resources).
	OpStart
)

// opKindNames is indexed by OpKind.
var opKindNames = [...]string{OpStop: "stop", OpStart: "start"}

// String returns a short name, or "" for an unknown kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return ""
	}
	return opKindNames[k]
}

// Op is one low-level operation in a plan.
type Op struct {
	Kind     OpKind
	Workflow string
	Task     string
	// Graceful lets a stopped task finish its current timestep (SIGTERM).
	Graceful bool
	// Procs/PerNode shape an OpStart; the concrete node placement is
	// resolved at execution time against then-current healthy resources.
	Procs   int
	PerNode int
	// Script names a user script to run before an OpStart.
	Script string
	// Policy records which policy motivated the operation ("" for derived
	// dependent operations and victim preemptions).
	Policy string
	// Victim marks a preemption stop inserted to free resources.
	Victim bool
	// Dependent marks an operation added through task inter-dependencies.
	Dependent bool
}

// AppendLabel appends o's label to b — its kind, then the task and its
// start size and flags in parentheses, as "start(T, 8 procs, dep)" — for
// a caller that labels many operations.
func (o Op) AppendLabel(b []byte) []byte {
	b = append(append(append(b, o.Kind.String()...), '('), o.Task...)
	if o.Kind == OpStart {
		b = append(strconv.AppendInt(append(b, ", "...), int64(o.Procs), 10), " procs"...)
	}
	if o.Victim {
		b = append(b, ", victim"...)
	}
	if o.Dependent {
		b = append(b, ", dep"...)
	}
	return append(b, ')')
}

// String returns o's label (AppendLabel).
func (o Op) String() string { return string(o.AppendLabel(nil)) }

// Plan is an ordered, feasible set of low-level operations.
type Plan struct {
	Ops []Op
}

// Empty reports whether the plan contains no operations.
func (p Plan) Empty() bool { return len(p.Ops) == 0 }

// TaskState is the arbiter's snapshot of one composed task.
type TaskState struct {
	// Running reports a live incarnation.
	Running bool
	// Procs is the current process count when running, or the most recent
	// (or configured) count otherwise — the size a RESTART brings back.
	Procs int
	// PerNode is the placement shape.
	PerNode int
	// CoresPerProc is the per-process core footprint (0 means 1); the
	// protocol's resource accounting is in cores = procs * CoresPerProc.
	CoresPerProc int
	// Script is the configured start script ("" for none).
	Script string
	// StartedAt is when the current/last incarnation launched (zero if
	// never); suggestions decided before it are stale and screened out.
	StartedAt sim.Time
}

// cpp returns the normalized per-process core footprint.
func (st TaskState) cpp() int {
	if st.CoresPerProc <= 0 {
		return 1
	}
	return st.CoresPerProc
}

// WaitingTask is an entry of T_waiting: a task displaced (or denied) that
// should start once resources allow.
type WaitingTask struct {
	Workflow     string
	Task         string
	Procs        int
	PerNode      int
	CoresPerProc int
	Script       string
	// Recovery marks an entry re-enqueued from a failed round's unapplied
	// START operations (the task was stopped by the plan but never came
	// back). Unlike victim entries, recovery entries may start from
	// pre-existing free capacity — the failed plan already released their
	// resources, so demanding fresh plan-freed surplus would strand them.
	Recovery bool
}

// PlanInput is the snapshot Algorithm 1 runs against.
type PlanInput struct {
	Workflow    string
	Suggestions []decision.Suggestion
	// Tasks maps every composed task of the workflow to its state.
	Tasks map[string]TaskState
	// FreeCores is the healthy unassigned capacity (Count(R_free)).
	FreeCores int
	// Rules supplies task/policy priorities and dependencies (may be nil).
	Rules *spec.WorkflowRules
	// Waiting is the current T_waiting queue.
	Waiting []WaitingTask
	// NoVictims disables preemption (ablation): infeasible acquiring
	// operations are denied instead of displacing low-priority tasks.
	NoVictims bool
	// ImmediateKill stops tasks without the graceful drain (ablation of
	// the §4.4 note that response times shrink when tasks are not allowed
	// to terminate gracefully — at the cost of losing in-flight steps).
	ImmediateKill bool
}

// intent is a per-task resolved high-level action.
type intent struct {
	action    spec.Action
	task      string
	pri       int // the task's priority
	policy    string
	policyPri int
	rule      *decision.Rule // the suggested rule (nil for dependents): its params shape the operation
	dependent bool
	parent    string // the disrupted task a dependent intent derives from
}

// taskOps is one task's low-level operations in the plan being built: a
// stop, a start, or both (a resize or restart). The operations themselves
// are built when the plan is emitted.
type taskOps struct {
	task     string
	policy   string // the motivating policy ("" for victims and waiting starts)
	parent   string // set for dependency-derived entries
	script   string // the start's script
	procs    int    // the start's shape
	perNode  int
	need     int // cores acquired by start
	freed    int // cores released by stop
	pri      int
	group    int // the victim group that preempted the task (1-based), 0 otherwise
	stops    bool
	starts   bool
	acquires bool
	// dependent marks operations added through task inter-dependencies.
	dependent bool
}

// stopOp and startOp are the entry's operations in workflow wf.
func (e *taskOps) stopOp(wf string) Op {
	return Op{Kind: OpStop, Workflow: wf, Task: e.task, Graceful: true, Policy: e.policy, Victim: e.group > 0, Dependent: e.dependent}
}

func (e *taskOps) startOp(wf string) Op {
	return Op{Kind: OpStart, Workflow: wf, Task: e.task, Procs: e.procs, PerNode: e.perNode, Script: e.script, Policy: e.policy, Dependent: e.dependent}
}

// planner is BuildPlan's scratch space. The engine keeps one and reuses it
// every round, so a warm round allocates only its plan's outputs: Ops
// and the returned waiting queue. Those are always fresh slices;
// nothing the planner returns is a view of these buffers, and nothing in
// them is read before the round that fills it has reset it.
type planner struct {
	index   map[string]int // task -> its intent in intents
	intents []intent
	queue   []string      // addDependents' breadth-first queue
	entries []taskOps     // the plan being built, one entry per task
	waiting []WaitingTask // T_waiting as the round updates it
	names   []string      // every task, sorted; filled by the round's first victim search
	deps    []string      // one disrupted task's tight dependents
	group   []string      // one preemption's running tight dependents
}

// BuildPlan runs the arbitration protocol and returns the ordered plan and
// the updated waiting queue. It runs a fresh planner; the engine runs the
// same code on the planner it keeps.
func BuildPlan(in PlanInput) (Plan, []WaitingTask) {
	var p planner
	return p.build(in)
}

// build runs the arbitration protocol on the planner's scratch space.
func (p *planner) build(in PlanInput) (Plan, []WaitingTask) {
	var plan Plan

	// --- Line 2: resolve conflicts in A_sugg using policy priorities. ---
	p.resolveConflicts(in)

	// --- Line 3: add dependent actions via task dependencies. ---
	p.addDependents(in)

	// --- Lines 4-5: map to low-level operations; compute resource needs.
	slices.SortFunc(p.intents, func(a, b intent) int { return byPriority(a.pri, a.task, b.pri, b.task) })
	if cap(p.entries) < len(p.intents) {
		p.entries = make([]taskOps, 0, len(p.intents))
	}
	p.entries = p.entries[:0]
	for i := range p.intents {
		it := &p.intents[i]
		st := in.Tasks[it.task]
		e := taskOps{task: it.task, pri: it.pri, policy: it.policy, parent: it.parent, dependent: it.dependent}
		switch it.action {
		case spec.ActionAddCPU, spec.ActionRmCPU:
			if !st.Running {
				continue // nothing to resize
			}
			delta := it.rule.IntParam("adjust-by", 20)
			newProcs := st.Procs + delta
			if it.action == spec.ActionRmCPU {
				newProcs = st.Procs - delta
				if newProcs < 1 {
					continue // shrinking below one process is nonsensical
				}
			}
			if newProcs == st.Procs {
				continue
			}
			// MPI tasks cannot grow or shrink without restart (paper §3).
			// Resizes relax the initial per-node shape (PerNode 0): the new
			// incarnation takes cores wherever the plan released them —
			// e.g. Isosurface growing 20->40 absorbs PDF_Calc's 2-per-node
			// cores in Figure 8.
			e.stops = true
			e.starts, e.procs, e.perNode, e.script = true, newProcs, 0, scriptFor(it, st)
			e.freed = st.Procs * st.cpp()
			e.need = newProcs * st.cpp()
			e.acquires = newProcs > st.Procs
		case spec.ActionRestart:
			procs := st.Procs
			if procs <= 0 {
				continue
			}
			if st.Running {
				e.stops = true
				e.freed = procs * st.cpp()
			}
			e.starts, e.procs, e.perNode, e.script = true, procs, st.PerNode, scriptFor(it, st)
			e.need = procs * st.cpp()
			e.acquires = !st.Running
		case spec.ActionStop:
			if !st.Running {
				continue
			}
			e.stops = true
			e.freed = st.Procs * st.cpp()
		case spec.ActionStart:
			if st.Running {
				continue
			}
			procs := it.rule.IntParam("procs", st.Procs)
			if procs <= 0 {
				continue
			}
			e.starts, e.procs, e.perNode, e.script = true, procs, st.PerNode, scriptFor(it, st)
			e.need = procs * st.cpp()
			e.acquires = true
		default:
			continue
		}
		p.entries = append(p.entries, e)
	}

	// --- Lines 6-15: make the plan feasible. ---
	// Deduplicate the incoming waiting queue by task (first entry wins) so
	// a task can never be started from one entry while another lingers.
	p.waiting = p.waiting[:0]
	for _, w := range in.Waiting {
		if !isWaiting(p.waiting, w.Task) {
			p.waiting = append(p.waiting, w)
		}
	}
	groups := 0
	p.names = p.names[:0]
	for p.balance(in) > 0 {
		// Find the lowest-priority running task (plus tight dependents)
		// that can shed resources.
		victim := ""
		victimPri := -1
		floor, anyAcquirer := p.bestAcquirerPri()
		if !in.NoVictims {
			if len(p.names) == 0 {
				for name := range in.Tasks {
					p.names = append(p.names, name)
				}
				slices.Sort(p.names)
			}
			for _, name := range p.names {
				st := in.Tasks[name]
				if !st.Running || st.Procs <= 0 || p.inPlan(name) || isWaiting(p.waiting, name) {
					continue
				}
				pri := taskPri(in, name)
				if anyAcquirer && pri <= floor {
					continue // never preempt an equal-or-higher-priority task
				}
				if pri > victimPri {
					victim, victimPri = name, pri
				}
			}
		}
		if victim != "" {
			// The victim's running tight dependents not already in the
			// plan go with it, as one group. A dependent preempted
			// earlier as a victim brings its whole group into this one,
			// so retraction never leaves it running on its stopped
			// parent.
			tight := spec.DepTight
			p.group = in.Rules.AppendDependents(p.group[:0], victim, &tight)
			groups++
			for _, dep := range p.group {
				p.absorb(dep, groups)
			}
			p.group = slices.DeleteFunc(p.group, func(dep string) bool { return !in.Tasks[dep].Running || p.inPlan(dep) })
			slices.Sort(p.group)
			p.preempt(in, victim, groups)
			for _, v := range p.group {
				p.preempt(in, v, groups)
			}
			continue
		}
		// No victim: discard the least significant acquiring operation.
		dropIdx := -1
		for i := range p.entries {
			e := &p.entries[i]
			if !e.acquires {
				continue
			}
			if dropIdx == -1 || e.pri > p.entries[dropIdx].pri {
				dropIdx = i
			}
		}
		if dropIdx == -1 {
			break // nothing acquires; should not happen with balance > 0
		}
		dropped := p.entries[dropIdx].task
		// Dependency-derived entries of the dropped operation are
		// pointless without it.
		kept := p.entries[:0]
		for i, e := range p.entries {
			if i != dropIdx && e.parent != dropped {
				kept = append(kept, e)
			}
		}
		p.entries = kept
	}

	// Retract victims that became unnecessary: if the acquiring operation
	// that motivated a preemption was itself dropped, the victim must not
	// be stopped for nothing. Remove victim groups (most recent first)
	// while the plan stays feasible without them. A group goes as a unit:
	// retracting a tight dependent alone would leave it running on its
	// stopped parent.
	for g := groups; g > 0; g-- {
		delta := 0
		for i := range p.entries {
			if e := &p.entries[i]; e.group == g {
				delta += e.need - e.freed
			}
		}
		if p.balance(in)-delta > 0 {
			continue // still needed
		}
		// Retracted for good; drop the group's waiting entries too.
		kept := p.entries[:0]
		for _, e := range p.entries {
			if e.group != g {
				kept = append(kept, e)
				continue
			}
			for j := len(p.waiting) - 1; j >= 0; j-- {
				if p.waiting[j].Task == e.task {
					p.waiting = slices.Delete(p.waiting, j, j+1)
					break
				}
			}
		}
		p.entries = kept
	}

	// --- Lines 16-18: start waiting tasks (highest priority first) while
	// resources remain. For ordinary entries only resources freed BY THE
	// PLAN count ("when resources are freed by the plan, the waiting list
	// tasks are provided the opportunity to start"): pre-existing free
	// capacity must not let a stray empty suggestion resurrect
	// long-displaced tasks. Recovery entries (re-enqueued from a failed
	// round's unapplied starts) instead draw on the full capacity left
	// after the plan — their resources were already released by the plan
	// that failed to restart them.
	surplus := 0
	for i := range p.entries {
		surplus += p.entries[i].freed - p.entries[i].need
	}
	avail := in.FreeCores + surplus
	if surplus < 0 {
		surplus = 0
	}
	if avail < 0 {
		avail = 0
	}
	slices.SortStableFunc(p.waiting, func(a, b WaitingTask) int {
		return byPriority(taskPri(in, a.Task), a.Task, taskPri(in, b.Task), b.Task)
	})
	// Entries that stay waiting are compacted to the front of p.waiting
	// as the loop reads past them.
	still := p.waiting[:0]
	for _, w := range p.waiting {
		if p.startsInPlan(w.Task) {
			continue // resolved by the plan itself (e.g. a START suggestion)
		}
		if in.Tasks[w.Task].Running && !p.stopsInPlan(w.Task) {
			continue // stale entry: the task is back without our help
		}
		cpp := w.CoresPerProc
		if cpp <= 0 {
			cpp = 1
		}
		cores := w.Procs * cpp
		budget := surplus
		if w.Recovery {
			budget = avail
		}
		if cores <= budget && !p.inPlan(w.Task) && !in.Tasks[w.Task].Running {
			p.entries = append(p.entries, taskOps{
				task:   w.Task,
				starts: true, procs: w.Procs, perNode: w.PerNode, script: w.Script,
				need: cores,
				pri:  taskPri(in, w.Task),
			})
			surplus -= cores
			if surplus < 0 {
				surplus = 0
			}
			avail -= cores
			continue
		}
		still = append(still, w)
	}
	// The queue the round leaves: none, the caller's own when the round
	// left it as it was, or else a copy of the planner's scratch.
	stillWaiting := in.Waiting
	if len(still) == 0 {
		stillWaiting = nil
	} else if !slices.Equal(still, in.Waiting) {
		stillWaiting = slices.Clone(still)
	}

	// --- Line 19: order operations — releases before acquisitions. ---
	slices.SortStableFunc(p.entries, func(a, b taskOps) int { return byPriority(a.pri, a.task, b.pri, b.task) })
	n := 0
	for i := range p.entries {
		if p.entries[i].stops {
			n++
		}
		if p.entries[i].starts {
			n++
		}
	}
	if n > 0 {
		plan.Ops = make([]Op, 0, n)
	}
	for i := range p.entries {
		if p.entries[i].stops {
			plan.Ops = append(plan.Ops, p.entries[i].stopOp(in.Workflow))
		}
	}
	for i := range p.entries {
		if p.entries[i].starts {
			plan.Ops = append(plan.Ops, p.entries[i].startOp(in.Workflow))
		}
	}
	if in.ImmediateKill {
		for i := range plan.Ops {
			plan.Ops[i].Graceful = false
		}
	}
	return plan, stillWaiting
}

// preempt adds a victim stop for a running task to the plan, in victim
// group g, and queues the task to come back once resources allow.
func (p *planner) preempt(in PlanInput, task string, g int) {
	st := in.Tasks[task]
	p.entries = append(p.entries, taskOps{
		task:  task,
		stops: true,
		freed: st.Procs * st.cpp(),
		pri:   taskPri(in, task),
		group: g,
	})
	p.waiting = append(p.waiting, WaitingTask{
		Workflow: in.Workflow, Task: task,
		Procs: st.Procs, PerNode: st.PerNode,
		CoresPerProc: st.cpp(), Script: st.Script,
	})
}

// absorb moves the victim group that preempted task, if any, into group g.
func (p *planner) absorb(task string, g int) {
	old := 0
	for i := range p.entries {
		if p.entries[i].task == task {
			old = p.entries[i].group
		}
	}
	if old == 0 {
		return
	}
	for i := range p.entries {
		if p.entries[i].group == old {
			p.entries[i].group = g
		}
	}
}

// balance is the plan's net core demand beyond the free capacity.
func (p *planner) balance(in PlanInput) int {
	need := 0
	for i := range p.entries {
		e := &p.entries[i]
		need += e.need - e.freed
	}
	return need - in.FreeCores
}

// bestAcquirerPri is the numerically smallest (most important) priority
// among operations that acquire resources; a victim must be strictly less
// important, so equal-priority tasks never preempt each other (e.g. XGC1 is
// never killed to start XGCa — XGCa waits instead).
func (p *planner) bestAcquirerPri() (int, bool) {
	best, any := 0, false
	for i := range p.entries {
		e := &p.entries[i]
		if e.acquires && (!any || e.pri < best) {
			best, any = e.pri, true
		}
	}
	return best, any
}

func (p *planner) inPlan(task string) bool {
	for i := range p.entries {
		e := &p.entries[i]
		if e.task == task {
			return true
		}
	}
	return false
}

func (p *planner) startsInPlan(task string) bool {
	for i := range p.entries {
		e := &p.entries[i]
		if e.task == task && e.starts {
			return true
		}
	}
	return false
}

func (p *planner) stopsInPlan(task string) bool {
	for i := range p.entries {
		e := &p.entries[i]
		if e.task == task && e.stops {
			return true
		}
	}
	return false
}

// resolveConflicts expands suggestions into per-task intents, resolving
// STOP-START, STOP-RESTART, and RMCPU-ADDCPU style conflicts with policy
// priorities (lower value wins; first seen wins ties).
func (p *planner) resolveConflicts(in PlanInput) {
	if p.index == nil {
		p.index = make(map[string]int)
	}
	clear(p.index)
	p.intents = p.intents[:0]
	for i := range in.Suggestions {
		r := in.Suggestions[i].Rule
		act, err := r.ParsedAction()
		if err != nil {
			continue
		}
		pri := in.Rules.PolicyPriority(r.PolicyID())
		if act == spec.ActionSwitch {
			// SWITCH = stop the assessed task, start the act-on tasks.
			p.consider(in, intent{action: spec.ActionStop, task: r.AssessTask(), policy: r.PolicyID(), policyPri: pri, rule: r})
			act = spec.ActionStart
		}
		for j := 0; j < r.NumActOnTasks(); j++ {
			p.consider(in, intent{action: act, task: r.ActOnTask(j), policy: r.PolicyID(), policyPri: pri, rule: r})
		}
	}
}

// consider adds it as its task's intent, or resolves it against the
// task's current one.
func (p *planner) consider(in PlanInput, it intent) {
	it.pri = taskPri(in, it.task)
	i, ok := p.index[it.task]
	if !ok {
		p.index[it.task] = len(p.intents)
		p.intents = append(p.intents, it)
		return
	}
	cur := &p.intents[i]
	if cur.action == it.action {
		return // duplicate suggestion
	}
	if it.policyPri < cur.policyPri {
		*cur = it
	}
}

// addDependents pulls in tightly coupled dependents of disrupted tasks:
// resizes and restarts restart the dependents; stops stop them. A
// dependency-derived action overrides the dependent's own suggested resize
// — consistency with the parent outranks an opportunistic ADDCPU/RMCPU, so
// Rendering is restarted at its current size when Isosurface resizes
// (Figure 8), even while Rendering's own INC_ON_PACE fired too.
func (p *planner) addDependents(in PlanInput) {
	p.queue = p.queue[:0]
	for i := range p.intents {
		p.queue = append(p.queue, p.intents[i].task)
	}
	slices.Sort(p.queue)
	tight := spec.DepTight
	for k := 0; k < len(p.queue); k++ {
		t := p.queue[k]
		it := p.intents[p.index[t]]
		var depAction spec.Action
		switch it.action {
		case spec.ActionAddCPU, spec.ActionRmCPU, spec.ActionRestart:
			depAction = spec.ActionRestart
		case spec.ActionStop:
			depAction = spec.ActionStop
		default:
			continue // START does not disrupt running dependents
		}
		p.deps = in.Rules.AppendDependents(p.deps[:0], t, &tight)
		for _, dep := range p.deps {
			if i, exists := p.index[dep]; exists {
				// Override resizes with the dependency restart, and a
				// START of a running dependent — which starts nothing —
				// with the dependency's stop or restart; leave stops and
				// existing restarts alone.
				cur := &p.intents[i]
				resize := cur.action == spec.ActionAddCPU || cur.action == spec.ActionRmCPU
				noopStart := cur.action == spec.ActionStart && in.Tasks[dep].Running
				if depAction == spec.ActionRestart && resize || noopStart {
					*cur = intent{
						action: depAction, task: dep, pri: cur.pri,
						policy: it.policy, policyPri: it.policyPri,
						dependent: true, parent: t,
					}
				}
				continue
			}
			if !in.Tasks[dep].Running {
				continue
			}
			p.index[dep] = len(p.intents)
			p.intents = append(p.intents, intent{
				action: depAction, task: dep, pri: taskPri(in, dep),
				policy: it.policy, policyPri: it.policyPri,
				dependent: true, parent: t,
			})
			p.queue = append(p.queue, dep)
		}
	}
}

func taskPri(in PlanInput, taskName string) int { return in.Rules.TaskPriority(taskName) }

// byPriority orders task a of priority pa before task b of priority pb
// when a is more important, and by name between equals.
func byPriority(pa int, a string, pb int, b string) int {
	if c := cmp.Compare(pa, pb); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

func isWaiting(waiting []WaitingTask, taskName string) bool {
	for _, w := range waiting {
		if w.Task == taskName {
			return true
		}
	}
	return false
}

func scriptFor(it *intent, st TaskState) string {
	if s, ok := it.rule.Param("restart-script"); ok {
		return s
	}
	return st.Script
}
