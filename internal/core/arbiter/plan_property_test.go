package arbiter

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
)

// The reference below is BuildPlan as it was before it ran on a reused
// planner: one heap object per intent, entry and operation, reflect-based
// sorts, the task-name list sorted on every victim search — with victim
// groups already retracted as units, and a victim's group absorbing the
// earlier group of a tight dependent. TestProperty_BuildPlan_EqualsParent
// and FuzzBuildPlan check the planner against it.

// parentIntent is a per-task resolved high-level action.
type parentIntent struct {
	action    spec.Action
	task      string
	policy    string
	policyPri int
	params    map[string]string
	dependent bool
	parent    string // the disrupted task a dependent parentIntent derives from
}

// parentBuildPlan runs the arbitration protocol and returns the ordered plan,
// the updated waiting queue and how many suggested actions it denied.
func parentBuildPlan(in PlanInput) (Plan, []WaitingTask, int) {
	var plan Plan
	denied := 0

	// --- Line 2: resolve conflicts in A_sugg using policy priorities. ---
	intents := parentResolveConflicts(in, &denied)

	// --- Line 3: add dependent actions via task dependencies. ---
	parentAddDependents(in, intents)

	// --- Lines 4-5: map to low-level operations; compute resource needs.
	type taskOps struct {
		task     string
		stop     *Op
		start    *Op
		need     int // cores acquired by start
		freed    int // cores released by stop
		acquires bool
		pri      int
		policy   string
		parent   string // set for dependency-derived entries
	}
	var entries []*taskOps
	for _, it := range parentSortedIntents(in, intents) {
		st := in.Tasks[it.task]
		e := &taskOps{task: it.task, pri: taskPri(in, it.task), policy: it.policy, parent: it.parent}
		switch it.action {
		case spec.ActionAddCPU, spec.ActionRmCPU:
			if !st.Running {
				continue // nothing to resize
			}
			delta := parentIntParam(it.params, "adjust-by", 20)
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
			e.stop = &Op{Kind: OpStop, Workflow: in.Workflow, Task: it.task, Graceful: true, Policy: it.policy, Dependent: it.dependent}
			e.start = &Op{Kind: OpStart, Workflow: in.Workflow, Task: it.task, Procs: newProcs, PerNode: 0, Script: parentScriptFor(it, st), Policy: it.policy, Dependent: it.dependent}
			e.freed = st.Procs * st.cpp()
			e.need = newProcs * st.cpp()
			e.acquires = newProcs > st.Procs
		case spec.ActionRestart:
			procs := st.Procs
			if procs <= 0 {
				continue
			}
			if st.Running {
				e.stop = &Op{Kind: OpStop, Workflow: in.Workflow, Task: it.task, Graceful: true, Policy: it.policy, Dependent: it.dependent}
				e.freed = procs * st.cpp()
			}
			e.start = &Op{Kind: OpStart, Workflow: in.Workflow, Task: it.task, Procs: procs, PerNode: st.PerNode, Script: parentScriptFor(it, st), Policy: it.policy, Dependent: it.dependent}
			e.need = procs * st.cpp()
			e.acquires = !st.Running
		case spec.ActionStop:
			if !st.Running {
				continue
			}
			e.stop = &Op{Kind: OpStop, Workflow: in.Workflow, Task: it.task, Graceful: true, Policy: it.policy, Dependent: it.dependent}
			e.freed = st.Procs * st.cpp()
		case spec.ActionStart:
			if st.Running {
				continue
			}
			procs := parentIntParam(it.params, "procs", st.Procs)
			if procs <= 0 {
				continue
			}
			e.start = &Op{Kind: OpStart, Workflow: in.Workflow, Task: it.task, Procs: procs, PerNode: st.PerNode, Script: parentScriptFor(it, st), Policy: it.policy, Dependent: it.dependent}
			e.need = procs * st.cpp()
			e.acquires = true
		default:
			continue
		}
		if e.stop == nil && e.start == nil {
			continue
		}
		entries = append(entries, e)
	}

	// --- Lines 6-15: make the plan feasible. ---
	// Deduplicate the incoming waiting queue by task (first entry wins) so
	// a task can never be started from one entry while another lingers.
	var waiting []WaitingTask
	for _, w := range in.Waiting {
		if !isWaiting(waiting, w.Task) {
			waiting = append(waiting, w)
		}
	}
	// victimGroups holds each preemption's entries: the victim and the
	// running tight dependents stopped with it.
	var victimGroups [][]*taskOps
	inPlan := func(task string) bool {
		for _, e := range entries {
			if e.task == task {
				return true
			}
		}
		return false
	}
	balance := func() int {
		need := 0
		for _, e := range entries {
			need += e.need - e.freed
		}
		return need - in.FreeCores
	}
	// bestAcquirerPri is the numerically smallest (most important) priority
	// among operations that acquire resources; a victim must be strictly
	// less important, so equal-priority tasks never preempt each other
	// (e.g. XGC1 is never killed to start XGCa — XGCa waits instead).
	bestAcquirerPri := func() (int, bool) {
		best, any := 0, false
		for _, e := range entries {
			if e.acquires && (!any || e.pri < best) {
				best, any = e.pri, true
			}
		}
		return best, any
	}
	for balance() > 0 {
		// Find the lowest-priority running task (plus tight dependents)
		// that can shed resources.
		victim := ""
		victimPri := -1
		floor, anyAcquirer := bestAcquirerPri()
		if !in.NoVictims {
			for _, name := range parentSortedTaskNames(in.Tasks) {
				st := in.Tasks[name]
				if !st.Running || st.Procs <= 0 || inPlan(name) || isWaiting(waiting, name) {
					continue
				}
				p := taskPri(in, name)
				if anyAcquirer && p <= floor {
					continue // never preempt an equal-or-higher-priority task
				}
				if p > victimPri {
					victim, victimPri = name, p
				}
			}
		}
		if victim != "" {
			// A tight dependent preempted earlier as a victim brings its
			// whole group into this one.
			var added []*taskOps
			tight := spec.DepTight
			for _, dep := range in.Rules.AppendDependents(nil, victim, &tight) {
				for k, g := range victimGroups {
					if slices.ContainsFunc(g, func(e *taskOps) bool { return e.task == dep }) {
						added = append(added, g...)
						victimGroups[k] = nil
					}
				}
			}
			group := append([]string{victim}, parentRunningTightDependents(in, victim, inPlan)...)
			for _, v := range group {
				st := in.Tasks[v]
				e := &taskOps{
					task:  v,
					stop:  &Op{Kind: OpStop, Workflow: in.Workflow, Task: v, Graceful: true, Victim: true},
					freed: st.Procs * st.cpp(),
					pri:   taskPri(in, v),
				}
				entries = append(entries, e)
				added = append(added, e)
				waiting = append(waiting, WaitingTask{
					Workflow: in.Workflow, Task: v,
					Procs: st.Procs, PerNode: st.PerNode,
					CoresPerProc: st.cpp(), Script: st.Script,
				})
			}
			victimGroups = append(victimGroups, added)
			continue
		}
		// No victim: discard the least significant acquiring operation.
		dropIdx := -1
		for i, e := range entries {
			if !e.acquires {
				continue
			}
			if dropIdx == -1 || e.pri > entries[dropIdx].pri {
				dropIdx = i
			}
		}
		if dropIdx == -1 {
			break // nothing acquires; should not happen with balance > 0
		}
		dropped := entries[dropIdx].task
		denied++
		entries = append(entries[:dropIdx], entries[dropIdx+1:]...)
		// Dependency-derived entries of the dropped operation are
		// pointless without it.
		kept := entries[:0]
		for _, e := range entries {
			if e.parent != dropped {
				kept = append(kept, e)
			}
		}
		entries = kept
	}

	// Retract victims that became unnecessary: if the acquiring operation
	// that motivated a preemption was itself dropped, the victim must not
	// be stopped for nothing. Remove victim groups (most recent first)
	// while the plan stays feasible without them. A group goes as a unit:
	// retracting a tight dependent alone would leave it running on its
	// stopped parent.
	for i := len(victimGroups) - 1; i >= 0; i-- {
		group := victimGroups[i]
		kept := entries[:0:0]
		for _, e := range entries {
			if !slices.Contains(group, e) {
				kept = append(kept, e)
			}
		}
		removed := entries
		entries = kept
		if balance() > 0 {
			// Still needed: put it back.
			entries = removed
			continue
		}
		// Retracted for good; drop the group's waiting entries too.
		for _, v := range group {
			for j := len(waiting) - 1; j >= 0; j-- {
				if waiting[j].Task == v.task {
					waiting = append(waiting[:j], waiting[j+1:]...)
					break
				}
			}
		}
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
	for _, e := range entries {
		surplus += e.freed - e.need
	}
	avail := in.FreeCores + surplus
	if surplus < 0 {
		surplus = 0
	}
	if avail < 0 {
		avail = 0
	}
	sort.SliceStable(waiting, func(i, j int) bool {
		pi, pj := taskPri(in, waiting[i].Task), taskPri(in, waiting[j].Task)
		if pi != pj {
			return pi < pj
		}
		return waiting[i].Task < waiting[j].Task
	})
	startsInPlan := func(task string) bool {
		for _, e := range entries {
			if e.task == task && e.start != nil {
				return true
			}
		}
		return false
	}
	stopsInPlan := func(task string) bool {
		for _, e := range entries {
			if e.task == task && e.stop != nil {
				return true
			}
		}
		return false
	}
	var stillWaiting []WaitingTask
	for _, w := range waiting {
		if startsInPlan(w.Task) {
			continue // resolved by the plan itself (e.g. a START suggestion)
		}
		if in.Tasks[w.Task].Running && !stopsInPlan(w.Task) {
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
		if cores <= budget && !inPlan(w.Task) && !in.Tasks[w.Task].Running {
			entries = append(entries, &taskOps{
				task:  w.Task,
				start: &Op{Kind: OpStart, Workflow: in.Workflow, Task: w.Task, Procs: w.Procs, PerNode: w.PerNode, Script: w.Script},
				need:  cores,
				pri:   taskPri(in, w.Task),
			})
			surplus -= cores
			if surplus < 0 {
				surplus = 0
			}
			avail -= cores
			continue
		}
		stillWaiting = append(stillWaiting, w)
	}

	// --- Line 19: order operations — releases before acquisitions. ---
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].pri != entries[j].pri {
			return entries[i].pri < entries[j].pri
		}
		return entries[i].task < entries[j].task
	})
	for _, e := range entries {
		if e.stop != nil {
			plan.Ops = append(plan.Ops, *e.stop)
		}
	}
	for _, e := range entries {
		if e.start != nil {
			plan.Ops = append(plan.Ops, *e.start)
		}
	}
	if in.ImmediateKill {
		for i := range plan.Ops {
			plan.Ops[i].Graceful = false
		}
	}
	return plan, stillWaiting, denied
}

// parentResolveConflicts expands suggestions into per-task intents, resolving
// STOP-START, STOP-RESTART, and RMCPU-ADDCPU style conflicts with policy
// priorities (lower value wins; first seen wins ties).
func parentResolveConflicts(in PlanInput, denied *int) map[string]*parentIntent {
	intents := make(map[string]*parentIntent)
	consider := func(it *parentIntent) {
		cur, ok := intents[it.task]
		if !ok {
			intents[it.task] = it
			return
		}
		if cur.action == it.action {
			return // duplicate suggestion
		}
		*denied++
		if it.policyPri < cur.policyPri {
			intents[it.task] = it
		}
	}
	for _, s := range in.Suggestions {
		sg := asParentSuggestion(s)
		act, err := spec.ParseAction(sg.Action)
		if err != nil {
			continue
		}
		pri := in.Rules.PolicyPriority(sg.PolicyID)
		if act == spec.ActionSwitch {
			// SWITCH = stop the assessed task, start the act-on tasks.
			consider(&parentIntent{action: spec.ActionStop, task: sg.AssessTask, policy: sg.PolicyID, policyPri: pri, params: sg.Params})
			for _, t := range sg.ActOnTasks {
				consider(&parentIntent{action: spec.ActionStart, task: t, policy: sg.PolicyID, policyPri: pri, params: sg.Params})
			}
			continue
		}
		for _, t := range sg.ActOnTasks {
			consider(&parentIntent{action: act, task: t, policy: sg.PolicyID, policyPri: pri, params: sg.Params})
		}
	}
	return intents
}

// parentAddDependents pulls in tightly coupled dependents of disrupted tasks:
// resizes and restarts restart the dependents; stops stop them. A
// dependency-derived action overrides the dependent's own suggested resize
// — consistency with the parent outranks an opportunistic ADDCPU/RMCPU, so
// Rendering is restarted at its current size when Isosurface resizes
// (Figure 8), even while Rendering's own INC_ON_PACE fired too.
func parentAddDependents(in PlanInput, intents map[string]*parentIntent) {
	queue := make([]string, 0, len(intents))
	for t := range intents {
		queue = append(queue, t)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		it := intents[t]
		var depAction spec.Action
		switch it.action {
		case spec.ActionAddCPU, spec.ActionRmCPU, spec.ActionRestart:
			depAction = spec.ActionRestart
		case spec.ActionStop:
			depAction = spec.ActionStop
		default:
			continue // START does not disrupt running dependents
		}
		tight := spec.DepTight
		for _, dep := range in.Rules.AppendDependents(nil, t, &tight) {
			if cur, exists := intents[dep]; exists {
				// Override resizes with the dependency restart, and a
				// START of a running dependent — which starts nothing —
				// with the dependency's stop or restart; leave stops and
				// existing restarts alone.
				resize := cur.action == spec.ActionAddCPU || cur.action == spec.ActionRmCPU
				noopStart := cur.action == spec.ActionStart && in.Tasks[dep].Running
				if depAction == spec.ActionRestart && resize || noopStart {
					intents[dep] = &parentIntent{
						action: depAction, task: dep,
						policy: it.policy, policyPri: it.policyPri,
						dependent: true, parent: t,
					}
				}
				continue
			}
			if !in.Tasks[dep].Running {
				continue
			}
			intents[dep] = &parentIntent{
				action: depAction, task: dep,
				policy: it.policy, policyPri: it.policyPri,
				dependent: true, parent: t,
			}
			queue = append(queue, dep)
		}
	}
}

// parentRunningTightDependents returns the running tight dependents of task (in
// sorted order) that are not already in the plan.
func parentRunningTightDependents(in PlanInput, taskName string, inPlan func(string) bool) []string {
	var out []string
	tight := spec.DepTight
	for _, dep := range in.Rules.AppendDependents(nil, taskName, &tight) {
		if in.Tasks[dep].Running && !inPlan(dep) {
			out = append(out, dep)
		}
	}
	sort.Strings(out)
	return out
}

func parentSortedIntents(in PlanInput, intents map[string]*parentIntent) []*parentIntent {
	names := make([]string, 0, len(intents))
	for t := range intents {
		names = append(names, t)
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := taskPri(in, names[i]), taskPri(in, names[j])
		if pi != pj {
			return pi < pj
		}
		return names[i] < names[j]
	})
	out := make([]*parentIntent, len(names))
	for i, n := range names {
		out[i] = intents[n]
	}
	return out
}

func parentSortedTaskNames(tasks map[string]TaskState) []string {
	names := make([]string, 0, len(tasks))
	for t := range tasks {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// parentSuggestion is decision.Suggestion as it was before it named its
// rule by descriptor. The reference reads a suggestion's fields from its
// record's JSON, which has that layout.
type parentSuggestion struct {
	ID         string            `json:"id,omitempty"`
	Workflow   string            `json:"workflow"`
	PolicyID   string            `json:"policy"`
	Action     string            `json:"action"`
	AssessTask string            `json:"assess_task"`
	ActOnTasks []string          `json:"act_on_tasks"`
	Params     map[string]string `json:"params,omitempty"`
}

func asParentSuggestion(sg decision.Suggestion) parentSuggestion {
	data, err := json.Marshal(sg.Record())
	if err != nil {
		panic(err)
	}
	var p parentSuggestion
	if err := json.Unmarshal(data, &p); err != nil {
		panic(err)
	}
	return p
}

func parentIntParam(params map[string]string, key string, def int) int {
	if params == nil {
		return def
	}
	b := spec.PolicyBinding{Params: params}
	return b.IntParam(key, def)
}

func parentScriptFor(it *parentIntent, st TaskState) string {
	if it.params != nil {
		if s, ok := it.params["restart-script"]; ok {
			return s
		}
	}
	return st.Script
}

// genPlanRound draws one arbitration round's input: a workflow of 1 to 12
// tasks, random priorities (ties and unset ones included) or no rules at
// all, tight and loose dependencies, a suggestion batch of every action
// (SWITCH, unknown actions and unknown tasks included), a T_waiting queue
// with duplicate, stale and recovery entries, and the two ablations.
func genPlanRound(rng *rand.Rand) PlanInput {
	wf := []string{"W", "V", "U"}[rng.Intn(3)]
	n := 1 + rng.Intn(12)
	names := make([]string, n)
	tasks := make(map[string]TaskState, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", wf, i)
		st := TaskState{Procs: rng.Intn(31), CoresPerProc: rng.Intn(3), PerNode: rng.Intn(4)}
		if rng.Intn(3) > 0 {
			st.Running = true
		}
		if rng.Intn(4) == 0 {
			st.Script = "boot-" + names[i]
		}
		tasks[names[i]] = st
	}
	pick := func() string {
		if rng.Intn(15) == 0 {
			return "ghost" // composed nowhere
		}
		return names[rng.Intn(n)]
	}
	in := PlanInput{Workflow: wf, Tasks: tasks, FreeCores: rng.Intn(61), NoVictims: rng.Intn(8) == 0, ImmediateKill: rng.Intn(8) == 0}
	if rng.Intn(8) > 0 {
		r := &spec.WorkflowRules{TaskPriorities: map[string]int{}, PolicyPriorities: map[string]int{}}
		for _, name := range names {
			if rng.Intn(6) > 0 {
				r.TaskPriorities[name] = rng.Intn(6)
			}
		}
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				r.PolicyPriorities[fmt.Sprintf("P%d", i)] = rng.Intn(3)
			}
		}
		for i, deps := 0, rng.Intn(n+1); i < deps; i++ {
			d := spec.TaskDep{Task: pick(), Parent: pick(), Type: spec.DepTight}
			if rng.Intn(4) == 0 {
				d.Type = spec.DepLoose
			}
			r.Deps = append(r.Deps, d)
		}
		in.Rules = r
	}
	actions := []string{"ADDCPU", "RMCPU", "STOP", "START", "RESTART", "SWITCH", "ADDCPU", "START", "BOGUS"}
	for i, k := 0, rng.Intn(7); i < k; i++ {
		policy, action, assess := fmt.Sprintf("P%d", rng.Intn(4)), actions[rng.Intn(len(actions))], pick()
		actOn := []string{pick()}
		if rng.Intn(3) == 0 {
			actOn = append(actOn, pick())
		}
		var params map[string]string
		switch rng.Intn(5) {
		case 0:
		case 1:
			params = map[string]string{"procs": fmt.Sprint(1 + rng.Intn(40))}
		case 2:
			params = map[string]string{"adjust-by": fmt.Sprint(1 + rng.Intn(15)), "restart-script": "again"}
		default:
			params = map[string]string{"adjust-by": fmt.Sprint(1 + rng.Intn(15))}
		}
		in.Suggestions = append(in.Suggestions, decision.Suggestion{Rule: decision.NewRule(wf, policy, action, assess, actOn, params)})
	}
	for i, k := 0, rng.Intn(5); i < k; i++ {
		in.Waiting = append(in.Waiting, WaitingTask{
			Workflow: wf, Task: pick(), Procs: 1 + rng.Intn(20), PerNode: rng.Intn(3),
			CoresPerProc: rng.Intn(3), Recovery: rng.Intn(3) == 0,
		})
	}
	return in
}

// planJSON is a round's result as the property compares it: JSON keeps a
// nil and an empty slice apart.
func planJSON(t testing.TB, plan Plan, waiting []WaitingTask) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Plan    Plan
		Waiting []WaitingTask
	}{plan, waiting})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// planRounds plays inputs through one reused planner and checks, round by
// round, that its plan and waiting queue equal the reference's and that
// the input is left as it was; then that every round's returned plan and
// waiting queue are still what they were when returned — a later round
// must never write into an earlier round's output.
func planRounds(t testing.TB, inputs []PlanInput) {
	t.Helper()
	var p planner
	type returned struct {
		plan    Plan
		waiting []WaitingTask
		json    string
	}
	var kept []returned
	for i, in := range inputs {
		before := inputJSON(t, in)
		plan, waiting := p.build(in)
		got := planJSON(t, plan, waiting)
		wantPlan, wantWaiting, _ := parentBuildPlan(in)
		if want := planJSON(t, wantPlan, wantWaiting); got != want {
			t.Fatalf("round %d: plan diverges from the reference\ninput: %s\n  got: %s\n want: %s", i, before, got, want)
		}
		if after := inputJSON(t, in); after != before {
			t.Fatalf("round %d: the planner wrote into its input\nbefore: %s\n after: %s", i, before, after)
		}
		kept = append(kept, returned{plan, waiting, got})
	}
	for i, r := range kept {
		if now := planJSON(t, r.plan, r.waiting); now != r.json {
			t.Fatalf("round %d's output changed after later rounds\n then: %s\n  now: %s", i, r.json, now)
		}
	}
}

// inputJSON is in's JSON, its suggestions as their records.
func inputJSON(t testing.TB, in PlanInput) string {
	t.Helper()
	recs := make([]decision.SuggestionRecord, len(in.Suggestions))
	for i, sg := range in.Suggestions {
		recs[i] = sg.Record()
	}
	data, err := json.Marshal(struct {
		PlanInput
		Suggestions []decision.SuggestionRecord
	}{in, recs})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestProperty_BuildPlan_EqualsParent: one planner, reused over 400
// generated rounds of mixed workflows, task counts, waiting queues,
// victims, denials and SWITCH/dependency expansions, returns what the
// reference returns for every round (plan and waiting queue as JSON
// bytes), never writes into its input, and never into an output it
// returned before.
func TestProperty_BuildPlan_EqualsParent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inputs := make([]PlanInput, 400)
	for i := range inputs {
		inputs[i] = genPlanRound(rng)
	}
	planRounds(t, inputs)

	// The generator must reach every branch the property is about.
	var victims, denials, switches, dependents, waitStarts, stillWaiting, empty int
	for _, in := range inputs {
		plan, waiting, denied := parentBuildPlan(in)
		for _, sg := range in.Suggestions {
			if actionOf(sg.Rule) == spec.ActionSwitch {
				switches++
				break
			}
		}
		for _, op := range plan.Ops {
			switch {
			case op.Victim:
				victims++
			case op.Dependent:
				dependents++
			case op.Kind == OpStart && op.Policy == "":
				waitStarts++
			}
		}
		if denied > 0 {
			denials++
		}
		if len(waiting) > 0 {
			stillWaiting++
		}
		if plan.Empty() {
			empty++
		}
	}
	if victims < 20 || denials < 20 || switches < 20 || dependents < 20 || waitStarts < 10 || stillWaiting < 20 || empty < 20 {
		t.Fatalf("generator coverage: %d victim ops, %d rounds with denials, %d with SWITCH, %d dependent ops, %d waiting starts, %d rounds leaving T_waiting, %d empty plans",
			victims, denials, switches, dependents, waitStarts, stillWaiting, empty)
	}
}

// FuzzBuildPlan runs the property on rounds drawn from a fuzzed seed: the
// number of rounds one planner plays comes from the input too.
func FuzzBuildPlan(f *testing.F) {
	for _, seed := range []int64{1, 2, 37, 458, 534} {
		f.Add(seed, uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8) {
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]PlanInput, 1+int(rounds)%32)
		for i := range inputs {
			inputs[i] = genPlanRound(rng)
		}
		planRounds(t, inputs)
	})
}
