package arbiter

import (
	"testing"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
)

// gsRules builds the Gray-Scott rule set from the paper: priorities
// GrayScott(0) > Isosurface(1) > Rendering(2) > FFT(3) > PDF_Calc(4), with
// Rendering tightly dependent on Isosurface and all analyses tightly
// dependent on GrayScott.
func gsRules() *spec.WorkflowRules {
	return &spec.WorkflowRules{
		TaskPriorities: map[string]int{
			"GrayScott": 0, "Isosurface": 1, "Rendering": 2, "FFT": 3, "PDF_Calc": 4,
		},
		PolicyPriorities: map[string]int{},
		Deps: []spec.TaskDep{
			{Task: "Rendering", Parent: "Isosurface", Type: spec.DepTight},
		},
	}
}

func gsTasks() map[string]TaskState {
	return map[string]TaskState{
		"GrayScott":  {Running: true, Procs: 340, PerNode: 34},
		"Isosurface": {Running: true, Procs: 20, PerNode: 2},
		"Rendering":  {Running: true, Procs: 20, PerNode: 2},
		"FFT":        {Running: true, Procs: 20, PerNode: 2},
		"PDF_Calc":   {Running: true, Procs: 20, PerNode: 2},
	}
}

func suggest(policy, action, assess string, actOn []string, params map[string]string) decision.Suggestion {
	return decision.Suggestion{Rule: decision.NewRule("GS", policy, action, assess, actOn, params)}
}

func findOps(plan Plan, kind OpKind, task string) []Op {
	var out []Op
	for _, op := range plan.Ops {
		if op.Kind == kind && op.Task == task {
			out = append(out, op)
		}
	}
	return out
}

// TestFigure8FirstAdaptation reproduces the paper's first Gray-Scott
// adaptation: ADDCPU(Isosurface, +20) with zero free cores must victimize
// the lowest-priority task (PDF_Calc) and restart Rendering due to its
// tight dependency on Isosurface.
func TestFigure8FirstAdaptation(t *testing.T) {
	in := PlanInput{
		Workflow:    "GS",
		Suggestions: []decision.Suggestion{suggest("INC_ON_PACE", "ADDCPU", "Isosurface", []string{"Isosurface"}, map[string]string{"adjust-by": "20"})},
		Tasks:       gsTasks(),
		FreeCores:   0,
		Rules:       gsRules(),
	}
	plan, waiting := BuildPlan(in)

	starts := findOps(plan, OpStart, "Isosurface")
	if len(starts) != 1 || starts[0].Procs != 40 {
		t.Fatalf("Isosurface start = %+v, want 40 procs", starts)
	}
	if len(findOps(plan, OpStop, "Isosurface")) != 1 {
		t.Fatal("Isosurface must be stopped before resize (MPI restart)")
	}
	// Tight dependent Rendering is restarted at its current size.
	if got := findOps(plan, OpStart, "Rendering"); len(got) != 1 || got[0].Procs != 20 || !got[0].Dependent {
		t.Fatalf("Rendering restart = %+v", got)
	}
	// PDF_Calc (priority 4) is the victim and lands in the waiting queue.
	vops := findOps(plan, OpStop, "PDF_Calc")
	if len(vops) != 1 || !vops[0].Victim {
		t.Fatalf("PDF_Calc victim stop = %+v", vops)
	}
	if len(waiting) != 1 || waiting[0].Task != "PDF_Calc" || waiting[0].Procs != 20 {
		t.Fatalf("waiting = %+v, want PDF_Calc@20", waiting)
	}
	// FFT must be untouched.
	if len(findOps(plan, OpStop, "FFT"))+len(findOps(plan, OpStart, "FFT")) != 0 {
		t.Fatal("FFT must not be disturbed")
	}
	// Ordering: every stop precedes every start.
	lastStop, firstStart := -1, len(plan.Ops)
	for i, op := range plan.Ops {
		if op.Kind == OpStop && i > lastStop {
			lastStop = i
		}
		if op.Kind == OpStart && i < firstStart {
			firstStart = i
		}
	}
	if lastStop > firstStart {
		t.Fatalf("ops out of order: %v", plan.Ops)
	}
}

// TestFigure8SecondAdaptation: Isosurface 40 -> 60 with PDF_Calc already
// waiting; the next victim is FFT (priority 3).
func TestFigure8SecondAdaptation(t *testing.T) {
	tasks := gsTasks()
	tasks["Isosurface"] = TaskState{Running: true, Procs: 40, PerNode: 2}
	tasks["PDF_Calc"] = TaskState{Running: false, Procs: 20, PerNode: 2}
	in := PlanInput{
		Workflow:    "GS",
		Suggestions: []decision.Suggestion{suggest("INC_ON_PACE", "ADDCPU", "Isosurface", []string{"Isosurface"}, map[string]string{"adjust-by": "20"})},
		Tasks:       tasks,
		FreeCores:   0,
		Rules:       gsRules(),
		Waiting:     []WaitingTask{{Workflow: "GS", Task: "PDF_Calc", Procs: 20, PerNode: 2}},
	}
	plan, waiting := BuildPlan(in)
	if got := findOps(plan, OpStart, "Isosurface"); len(got) != 1 || got[0].Procs != 60 {
		t.Fatalf("Isosurface start = %+v, want 60 procs", got)
	}
	if got := findOps(plan, OpStop, "FFT"); len(got) != 1 || !got[0].Victim {
		t.Fatalf("FFT victim = %+v", got)
	}
	// PDF_Calc stays waiting (no surplus) and FFT joins it.
	names := map[string]bool{}
	for _, w := range waiting {
		names[w.Task] = true
	}
	if !names["PDF_Calc"] || !names["FFT"] || len(waiting) != 2 {
		t.Fatalf("waiting = %+v", waiting)
	}
}

// TestConflictResolutionStopBeatsStart: STOP (priority 0) vs START
// (priority 1) on the same task keeps the STOP, as in the XGC experiment's
// STOP_ON_COND > RESTART_UNTIL_COND prioritization, whichever of the two
// is suggested first: the plan is the STOP_ON_COND stop alone, and the
// denied START leaves nothing waiting.
func TestConflictResolutionStopBeatsStart(t *testing.T) {
	rules := &spec.WorkflowRules{
		PolicyPriorities: map[string]int{
			"STOP_ON_COND":       0,
			"RESTART_UNTIL_COND": 1,
		},
		TaskPriorities: map[string]int{"XGC1": 0, "XGCA": 0},
	}
	tasks := map[string]TaskState{
		"XGC1": {Running: false, Procs: 192, PerNode: 14},
		"XGCA": {Running: true, Procs: 192, PerNode: 14},
	}
	start := decision.Suggestion{Rule: decision.NewRule("FUSION", "RESTART_UNTIL_COND", "START", "XGC1", []string{"XGCA"}, nil)}
	stop := decision.Suggestion{Rule: decision.NewRule("FUSION", "STOP_ON_COND", "STOP", "XGCA", []string{"XGCA"}, nil)}
	for _, suggestions := range [][]decision.Suggestion{{start, stop}, {stop, start}} {
		in := PlanInput{
			Workflow:    "FUSION",
			Suggestions: suggestions,
			Tasks:       tasks,
			FreeCores:   0,
			Rules:       rules,
		}
		plan, waiting := BuildPlan(in)
		if got := findOps(plan, OpStop, "XGCA"); len(got) != 1 || got[0].Policy != "STOP_ON_COND" {
			t.Fatalf("plan = %v, want STOP XGCA by STOP_ON_COND", plan.Ops)
		}
		if len(findOps(plan, OpStart, "XGCA")) != 0 || len(plan.Ops) != 1 {
			t.Fatalf("plan = %v, want the conflicting START filtered", plan.Ops)
		}
		if len(waiting) != 0 {
			t.Fatalf("waiting = %+v, want none", waiting)
		}
	}
}

// TestSwitchExpandsToStopAndStart mirrors SWITCH_ON_COND: stop the assessed
// XGCa and start XGC1 with its restart script.
func TestSwitchExpandsToStopAndStart(t *testing.T) {
	rules := &spec.WorkflowRules{TaskPriorities: map[string]int{"XGC1": 0, "XGCA": 0}}
	tasks := map[string]TaskState{
		"XGC1": {Running: false, Procs: 192, PerNode: 14, Script: "restart-xgc1.sh"},
		"XGCA": {Running: true, Procs: 192, PerNode: 14},
	}
	in := PlanInput{
		Workflow: "FUSION",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("FUSION", "SWITCH_ON_COND", "SWITCH", "XGCA", []string{"XGC1"}, nil)},
		},
		Tasks:     tasks,
		FreeCores: 0,
		Rules:     rules,
	}
	plan, _ := BuildPlan(in)
	if len(findOps(plan, OpStop, "XGCA")) != 1 {
		t.Fatalf("plan = %v, want stop XGCA", plan.Ops)
	}
	starts := findOps(plan, OpStart, "XGC1")
	if len(starts) != 1 || starts[0].Procs != 192 || starts[0].Script != "restart-xgc1.sh" {
		t.Fatalf("XGC1 start = %+v", starts)
	}
	// Stop must precede start so the freed cores satisfy the start.
	if plan.Ops[0].Kind != OpStop {
		t.Fatalf("first op = %v, want the stop", plan.Ops[0])
	}
}

// TestDenyWhenNoVictim: an acquiring action with no free cores and no
// eligible victim is discarded (paper: "the lowest priority operation
// requesting additional resources gets discarded").
func TestDenyWhenNoVictim(t *testing.T) {
	rules := &spec.WorkflowRules{TaskPriorities: map[string]int{"A": 0, "B": 1}}
	tasks := map[string]TaskState{
		"A": {Running: true, Procs: 10, PerNode: 0},
		"B": {Running: false, Procs: 10, PerNode: 0},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P1", "ADDCPU", "", []string{"A"}, map[string]string{"adjust-by": "5"})},
			{Rule: decision.NewRule("W", "P2", "START", "", []string{"B"}, nil)},
		},
		Tasks:     tasks,
		FreeCores: 5,
		Rules:     rules,
	}
	// Needs: A 10->15 (net +5), B +10; free 5. No victims (A and B are both
	// in the plan). B (priority 1, lowest) must be denied; A's resize fits.
	plan, waiting := BuildPlan(in)
	if got := findOps(plan, OpStart, "A"); len(got) != 1 || got[0].Procs != 15 {
		t.Fatalf("A start = %+v", got)
	}
	if len(findOps(plan, OpStop, "A")) != 1 || len(plan.Ops) != 2 {
		t.Fatalf("plan = %v, want A's stop and start only", plan.Ops)
	}
	if len(findOps(plan, OpStart, "B")) != 0 {
		t.Fatal("B must be denied")
	}
	if len(waiting) != 0 {
		t.Fatalf("denied ops do not join the waiting queue: %v", waiting)
	}
}

// TestWaitingTaskRestartsOnSurplus: a STOP frees resources; a waiting task
// that fits is started in the same plan (Algorithm 1 lines 16-18).
func TestWaitingTaskRestartsOnSurplus(t *testing.T) {
	rules := &spec.WorkflowRules{TaskPriorities: map[string]int{"A": 0, "B": 1, "C": 2}}
	tasks := map[string]TaskState{
		"A": {Running: true, Procs: 20, PerNode: 0},
		"B": {Running: false, Procs: 15, PerNode: 0},
		"C": {Running: false, Procs: 8, PerNode: 0},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "STOP", "", []string{"A"}, nil)},
		},
		Tasks:     tasks,
		FreeCores: 0,
		Rules:     rules,
		Waiting: []WaitingTask{
			{Workflow: "W", Task: "C", Procs: 8},
			{Workflow: "W", Task: "B", Procs: 15},
		},
	}
	plan, waiting := BuildPlan(in)
	// Stopping A frees 20 cores; B (higher priority) takes 15, C (8) no
	// longer fits.
	if got := findOps(plan, OpStart, "B"); len(got) != 1 {
		t.Fatalf("B start = %+v", got)
	}
	if len(findOps(plan, OpStart, "C")) != 0 {
		t.Fatal("C must keep waiting")
	}
	if len(waiting) != 1 || waiting[0].Task != "C" {
		t.Fatalf("waiting = %+v", waiting)
	}
}

// TestRestartOfFailedTask: RESTART on a dead task emits only a start with
// the last-known size (the Figure 11 recovery path).
func TestRestartOfFailedTask(t *testing.T) {
	rules := &spec.WorkflowRules{TaskPriorities: map[string]int{"LAMMPS": 0}}
	tasks := map[string]TaskState{
		"LAMMPS": {Running: false, Procs: 1500, PerNode: 30},
	}
	in := PlanInput{
		Workflow: "MD",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("MD", "RESTART_ON_FAILURE", "RESTART", "", []string{"LAMMPS"}, nil)},
		},
		Tasks:     tasks,
		FreeCores: 1600,
		Rules:     rules,
	}
	plan, _ := BuildPlan(in)
	if len(findOps(plan, OpStop, "LAMMPS")) != 0 {
		t.Fatal("no stop for an already-dead task")
	}
	if got := findOps(plan, OpStart, "LAMMPS"); len(got) != 1 || got[0].Procs != 1500 || got[0].PerNode != 30 {
		t.Fatalf("LAMMPS restart = %+v", got)
	}
}

// TestDuplicateSuggestionsCollapse: the same policy firing repeatedly in
// one batch yields one set of ops.
func TestDuplicateSuggestionsCollapse(t *testing.T) {
	in := PlanInput{
		Workflow: "GS",
		Suggestions: []decision.Suggestion{
			suggest("INC", "ADDCPU", "Isosurface", []string{"Isosurface"}, map[string]string{"adjust-by": "20"}),
			suggest("INC", "ADDCPU", "Isosurface", []string{"Isosurface"}, map[string]string{"adjust-by": "20"}),
		},
		Tasks:     gsTasks(),
		FreeCores: 100,
		Rules:     gsRules(),
	}
	plan, _ := BuildPlan(in)
	if got := findOps(plan, OpStart, "Isosurface"); len(got) != 1 || got[0].Procs != 40 {
		t.Fatalf("duplicate suggestions must collapse: %+v", plan.Ops)
	}
}

// TestRmCPUFreesResources: RMCPU shrinks a task and the freed cores start a
// waiting task.
func TestRmCPUFreesResources(t *testing.T) {
	rules := &spec.WorkflowRules{TaskPriorities: map[string]int{"A": 0, "B": 1}}
	tasks := map[string]TaskState{
		"A": {Running: true, Procs: 30, PerNode: 0},
		"B": {Running: false, Procs: 10, PerNode: 0},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "DEC", "RMCPU", "", []string{"A"}, map[string]string{"adjust-by": "10"})},
		},
		Tasks:     tasks,
		FreeCores: 0,
		Rules:     rules,
		Waiting:   []WaitingTask{{Workflow: "W", Task: "B", Procs: 10}},
	}
	plan, waiting := BuildPlan(in)
	if got := findOps(plan, OpStart, "A"); len(got) != 1 || got[0].Procs != 20 {
		t.Fatalf("A resized = %+v", got)
	}
	if got := findOps(plan, OpStart, "B"); len(got) != 1 {
		t.Fatalf("B should start from the freed cores: %v", plan.Ops)
	}
	if len(waiting) != 0 {
		t.Fatalf("waiting = %+v", waiting)
	}
}

// TestRmCPUSkipsWhenItWouldZeroTask: an RMCPU that would shrink a task
// below one process is dropped rather than producing a degenerate restart.
func TestRmCPUSkipsWhenItWouldZeroTask(t *testing.T) {
	rules := &spec.WorkflowRules{TaskPriorities: map[string]int{"A": 0}}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "DEC", "RMCPU", "", []string{"A"}, map[string]string{"adjust-by": "100"})},
		},
		Tasks:     map[string]TaskState{"A": {Running: true, Procs: 10}},
		FreeCores: 0,
		Rules:     rules,
	}
	plan, _ := BuildPlan(in)
	if !plan.Empty() {
		t.Fatalf("plan = %v, want empty (RMCPU below 1 proc skipped)", plan.Ops)
	}
}

// TestNoopSuggestionsYieldEmptyPlan.
func TestNoopSuggestionsYieldEmptyPlan(t *testing.T) {
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "START", "", []string{"A"}, nil)}, // already running
			{Rule: decision.NewRule("W", "P", "STOP", "", []string{"B"}, nil)},  // already down
		},
		Tasks: map[string]TaskState{
			"A": {Running: true, Procs: 4},
			"B": {Running: false, Procs: 4},
		},
		FreeCores: 0,
		Rules:     &spec.WorkflowRules{TaskPriorities: map[string]int{}},
	}
	plan, _ := BuildPlan(in)
	if !plan.Empty() {
		t.Fatalf("plan = %v, want empty", plan.Ops)
	}
}

// TestVictimTakesTightDependentsAlong: preempting a parent also stops its
// running tight dependents and queues both.
func TestVictimTakesTightDependentsAlong(t *testing.T) {
	rules := &spec.WorkflowRules{
		TaskPriorities: map[string]int{"Sim": 0, "AnaParent": 3, "AnaChild": 4, "New": 1},
		Deps: []spec.TaskDep{
			{Task: "AnaChild", Parent: "AnaParent", Type: spec.DepTight},
		},
	}
	tasks := map[string]TaskState{
		"Sim":       {Running: true, Procs: 10},
		"AnaParent": {Running: true, Procs: 6},
		"AnaChild":  {Running: true, Procs: 4},
		"New":       {Running: false, Procs: 8},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "START", "", []string{"New"}, nil)},
		},
		Tasks:     tasks,
		FreeCores: 0,
		Rules:     rules,
	}
	plan, waiting := BuildPlan(in)
	// AnaChild has the lowest priority and is picked first; if its 4 cores
	// are not enough, AnaParent follows.
	if len(findOps(plan, OpStop, "AnaChild")) != 1 {
		t.Fatalf("plan = %v, want AnaChild victimized", plan.Ops)
	}
	if len(findOps(plan, OpStop, "AnaParent")) != 1 {
		t.Fatalf("plan = %v, want AnaParent victimized too (4 < 8)", plan.Ops)
	}
	if len(findOps(plan, OpStop, "Sim")) != 0 {
		t.Fatal("the high-priority task must never be victimized here")
	}
	if got := findOps(plan, OpStart, "New"); len(got) != 1 {
		t.Fatalf("New start = %+v", got)
	}
	wn := map[string]bool{}
	for _, w := range waiting {
		wn[w.Task] = true
	}
	if !wn["AnaChild"] || !wn["AnaParent"] {
		t.Fatalf("waiting = %+v", waiting)
	}
}

// TestVictimRetractionKeepsTightGroup: a victim and the running tight
// dependents preempted with it are retracted as one group. B is picked as
// the victim and brings C (tight on B) along; B alone frees enough, so
// retracting the group must fail and both stay stopped — retracting C on
// its own would leave it running on a stopped parent.
func TestVictimRetractionKeepsTightGroup(t *testing.T) {
	rules := &spec.WorkflowRules{
		TaskPriorities: map[string]int{"A": 0, "B": 2, "C": 1},
		Deps:           []spec.TaskDep{{Task: "C", Parent: "B", Type: spec.DepTight}},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "START", "", []string{"A"}, map[string]string{"procs": "10"})},
		},
		Tasks: map[string]TaskState{
			"A": {Procs: 10},
			"B": {Running: true, Procs: 12},
			"C": {Running: true, Procs: 8},
		},
		FreeCores: 0,
		Rules:     rules,
	}
	plan, waiting := BuildPlan(in)
	if len(findOps(plan, OpStop, "B")) != 1 || len(findOps(plan, OpStart, "A")) != 1 {
		t.Fatalf("plan = %v, want B stopped for A", plan.Ops)
	}
	if len(findOps(plan, OpStop, "C")) != 1 {
		t.Fatalf("plan = %v: C keeps running on its stopped tight parent B", plan.Ops)
	}
	wn := map[string]bool{}
	for _, w := range waiting {
		wn[w.Task] = true
	}
	if !wn["B"] || !wn["C"] {
		t.Fatalf("waiting = %+v, want B and C queued to come back", waiting)
	}
}

// TestVictimGroupAbsorbsEarlierDependentVictim: E (tight on D) is the
// least important running task, so it is preempted first, as a group of
// its own; D is preempted next. E's group alone is not needed once D is
// stopped, so retracting it by itself would leave E running on its
// stopped parent. D's group absorbs E's, and the two stay stopped together.
func TestVictimGroupAbsorbsEarlierDependentVictim(t *testing.T) {
	rules := &spec.WorkflowRules{
		TaskPriorities: map[string]int{"A": 0, "D": 2, "E": 3},
		Deps:           []spec.TaskDep{{Task: "E", Parent: "D", Type: spec.DepTight}},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "START", "", []string{"A"}, map[string]string{"procs": "10"})},
		},
		Tasks: map[string]TaskState{
			"A": {Procs: 10},
			"D": {Running: true, Procs: 12},
			"E": {Running: true, Procs: 4},
		},
		FreeCores: 0,
		Rules:     rules,
	}
	plan, waiting := BuildPlan(in)
	if len(findOps(plan, OpStop, "D")) != 1 || len(findOps(plan, OpStart, "A")) != 1 {
		t.Fatalf("plan = %v, want D stopped for A", plan.Ops)
	}
	if len(findOps(plan, OpStop, "E")) != 1 {
		t.Fatalf("plan = %v: E keeps running on its stopped tight parent D", plan.Ops)
	}
	wn := map[string]bool{}
	for _, w := range waiting {
		wn[w.Task] = true
	}
	if !wn["D"] || !wn["E"] {
		t.Fatalf("waiting = %+v, want D and E queued to come back", waiting)
	}
}

// TestFigure8AllAnalysesSuggest reproduces the paper's exact first round:
// INC_ON_PACE fires for all four analyses at once (they all pace above 36 s
// because the workflow is gated by Isosurface). Arbitration must enable
// only Isosurface's increase, restart Rendering at its current size due to
// the tight dependency, victimize PDF_Calc, and deny FFT and PDF_Calc's own
// increases — leaving FFT running untouched.
func TestFigure8AllAnalysesSuggest(t *testing.T) {
	rules := gsRules()
	rules.Deps = []spec.TaskDep{
		{Task: "Rendering", Parent: "Isosurface", Type: spec.DepTight},
	}
	params := map[string]string{"adjust-by": "20"}
	in := PlanInput{
		Workflow: "GS",
		Suggestions: []decision.Suggestion{
			suggest("INC_ON_PACE", "ADDCPU", "Isosurface", []string{"Isosurface"}, params),
			suggest("INC_ON_PACE", "ADDCPU", "Rendering", []string{"Rendering"}, params),
			suggest("INC_ON_PACE", "ADDCPU", "FFT", []string{"FFT"}, params),
			suggest("INC_ON_PACE", "ADDCPU", "PDF_Calc", []string{"PDF_Calc"}, params),
		},
		Tasks:     gsTasks(),
		FreeCores: 0,
		Rules:     rules,
	}
	plan, waiting := BuildPlan(in)

	if got := findOps(plan, OpStart, "Isosurface"); len(got) != 1 || got[0].Procs != 40 {
		t.Fatalf("Isosurface = %+v, want grow to 40", got)
	}
	// Rendering restarted at its CURRENT size (dependency override), not 40.
	if got := findOps(plan, OpStart, "Rendering"); len(got) != 1 || got[0].Procs != 20 || !got[0].Dependent {
		t.Fatalf("Rendering = %+v, want dependent restart at 20", got)
	}
	// PDF_Calc victimized; FFT untouched and still running.
	if got := findOps(plan, OpStop, "PDF_Calc"); len(got) != 1 || !got[0].Victim {
		t.Fatalf("PDF_Calc = %+v, want victim stop", got)
	}
	if n := len(findOps(plan, OpStop, "FFT")) + len(findOps(plan, OpStart, "FFT")); n != 0 {
		t.Fatalf("FFT must be untouched, plan = %v", plan.Ops)
	}
	if len(findOps(plan, OpStop, "GrayScott")) != 0 {
		t.Fatal("the simulation must never be preempted")
	}
	// FFT's and PDF's own increases were denied: PDF_Calc only stops, and
	// waits at its current size, not the 40 its ADDCPU asked for.
	if got := findOps(plan, OpStart, "PDF_Calc"); len(got) != 0 {
		t.Fatalf("PDF_Calc start = %+v, want its increase denied", got)
	}
	if len(waiting) != 1 || waiting[0].Task != "PDF_Calc" || waiting[0].Procs != 20 {
		t.Fatalf("waiting = %+v, want PDF_Calc at 20", waiting)
	}
}

// TestFigure8SecondRoundWithFFTVictim: round two — Isosurface at 40 still
// paces above threshold, FFT (running) and Rendering fire too; the victim
// this time is FFT, and PDF_Calc stays waiting.
func TestFigure8SecondRoundWithFFTVictim(t *testing.T) {
	rules := gsRules()
	params := map[string]string{"adjust-by": "20"}
	tasks := gsTasks()
	tasks["Isosurface"] = TaskState{Running: true, Procs: 40, PerNode: 2}
	tasks["PDF_Calc"] = TaskState{Running: false, Procs: 20, PerNode: 2}
	in := PlanInput{
		Workflow: "GS",
		Suggestions: []decision.Suggestion{
			suggest("INC_ON_PACE", "ADDCPU", "Isosurface", []string{"Isosurface"}, params),
			suggest("INC_ON_PACE", "ADDCPU", "Rendering", []string{"Rendering"}, params),
			suggest("INC_ON_PACE", "ADDCPU", "FFT", []string{"FFT"}, params),
		},
		Tasks:     tasks,
		FreeCores: 0,
		Rules:     rules,
		Waiting:   []WaitingTask{{Workflow: "GS", Task: "PDF_Calc", Procs: 20, PerNode: 2}},
	}
	plan, waiting := BuildPlan(in)
	if got := findOps(plan, OpStart, "Isosurface"); len(got) != 1 || got[0].Procs != 60 {
		t.Fatalf("Isosurface = %+v, want grow to 60", got)
	}
	if got := findOps(plan, OpStart, "Rendering"); len(got) != 1 || got[0].Procs != 20 {
		t.Fatalf("Rendering = %+v, want dependent restart at 20", got)
	}
	if got := findOps(plan, OpStop, "FFT"); len(got) != 1 || !got[0].Victim {
		t.Fatalf("FFT = %+v, want victim stop", got)
	}
	names := map[string]bool{}
	for _, w := range waiting {
		names[w.Task] = true
	}
	if len(waiting) != 2 || !names["PDF_Calc"] || !names["FFT"] {
		t.Fatalf("waiting = %+v", waiting)
	}
}

// TestLooseDependentsUndisturbed: only TIGHT dependents ride along with a
// parent's restart; loosely coupled dependents (file exchange, decoupled
// execution) are left alone.
func TestLooseDependentsUndisturbed(t *testing.T) {
	rules := &spec.WorkflowRules{
		TaskPriorities: map[string]int{"Parent": 0, "TightKid": 1, "LooseKid": 2},
		Deps: []spec.TaskDep{
			{Task: "TightKid", Parent: "Parent", Type: spec.DepTight},
			{Task: "LooseKid", Parent: "Parent", Type: spec.DepLoose},
		},
	}
	tasks := map[string]TaskState{
		"Parent":   {Running: true, Procs: 10},
		"TightKid": {Running: true, Procs: 4},
		"LooseKid": {Running: true, Procs: 4},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "RESTART", "", []string{"Parent"}, nil)},
		},
		Tasks:     tasks,
		FreeCores: 0,
		Rules:     rules,
	}
	plan, _ := BuildPlan(in)
	if len(findOps(plan, OpStart, "TightKid")) != 1 {
		t.Fatalf("plan = %v, want tight dependent restarted", plan.Ops)
	}
	if n := len(findOps(plan, OpStop, "LooseKid")) + len(findOps(plan, OpStart, "LooseKid")); n != 0 {
		t.Fatalf("plan = %v, loose dependent must be untouched", plan.Ops)
	}
}

// TestTransitiveDependentRestart: dependency chains propagate (A restarts
// => B restarts => C restarts).
func TestTransitiveDependentRestart(t *testing.T) {
	rules := &spec.WorkflowRules{
		TaskPriorities: map[string]int{"A": 0, "B": 1, "C": 2},
		Deps: []spec.TaskDep{
			{Task: "B", Parent: "A", Type: spec.DepTight},
			{Task: "C", Parent: "B", Type: spec.DepTight},
		},
	}
	in := PlanInput{
		Workflow: "W",
		Suggestions: []decision.Suggestion{
			{Rule: decision.NewRule("W", "P", "RESTART", "", []string{"A"}, nil)},
		},
		Tasks: map[string]TaskState{
			"A": {Running: true, Procs: 8},
			"B": {Running: true, Procs: 4},
			"C": {Running: true, Procs: 2},
		},
		FreeCores: 0,
		Rules:     rules,
	}
	plan, _ := BuildPlan(in)
	for _, name := range []string{"A", "B", "C"} {
		if len(findOps(plan, OpStart, name)) != 1 || len(findOps(plan, OpStop, name)) != 1 {
			t.Fatalf("plan = %v, want %s restarted", plan.Ops, name)
		}
	}
}

// Recovery entries of T_waiting (re-enqueued from a failed round's
// unapplied starts) may draw on pre-existing free capacity — the failed
// plan already released their resources. Ordinary entries must keep
// waiting for fresh plan-freed surplus.
func TestRecoveryWaitingStartsFromFreeCapacity(t *testing.T) {
	in := PlanInput{
		Workflow: "W",
		// A STOP on a task that is not running contributes nothing to the
		// plan; only the waiting queue can produce operations.
		Suggestions: []decision.Suggestion{{Rule: decision.NewRule("W", "P", "STOP", "C", []string{"C"}, nil)}},
		Tasks: map[string]TaskState{
			"C":  {Running: false, Procs: 4},
			"W1": {Running: false, Procs: 5},
			"W2": {Running: false, Procs: 5},
		},
		FreeCores: 5,
		Waiting: []WaitingTask{
			{Workflow: "W", Task: "W1", Procs: 5},
			{Workflow: "W", Task: "W2", Procs: 5, Recovery: true},
		},
	}
	plan, waiting := BuildPlan(in)
	if got := findOps(plan, OpStart, "W2"); len(got) != 1 || got[0].Procs != 5 {
		t.Fatalf("recovery start = %+v, want W2@5 from free capacity", got)
	}
	if got := findOps(plan, OpStart, "W1"); len(got) != 0 {
		t.Fatalf("ordinary waiting entry started without plan surplus: %+v", got)
	}
	if len(waiting) != 1 || waiting[0].Task != "W1" || waiting[0].Recovery {
		t.Fatalf("waiting = %+v, want only ordinary W1 still queued", waiting)
	}
}

// Free capacity is finite: a recovery entry larger than it stays queued.
func TestRecoveryWaitingRespectsFreeCapacity(t *testing.T) {
	in := PlanInput{
		Workflow:    "W",
		Suggestions: []decision.Suggestion{{Rule: decision.NewRule("W", "P", "STOP", "C", []string{"C"}, nil)}},
		Tasks: map[string]TaskState{
			"C":  {Running: false, Procs: 4},
			"W2": {Running: false, Procs: 50},
		},
		FreeCores: 5,
		Waiting:   []WaitingTask{{Workflow: "W", Task: "W2", Procs: 50, Recovery: true}},
	}
	plan, waiting := BuildPlan(in)
	if !plan.Empty() {
		t.Fatalf("plan = %v, want empty (50 cores do not fit in 5 free)", plan.Ops)
	}
	if len(waiting) != 1 || !waiting[0].Recovery {
		t.Fatalf("waiting = %+v, want the recovery entry kept", waiting)
	}
}

// TestStoppedParentStopsRunningDependentItStarts: genInput seed 534. A
// SWITCH stops D and starts E, which runs tight on D. Starting a running
// task changes nothing, so that START must not shield E from its parent's
// stop: E is stopped with D.
func TestStoppedParentStopsRunningDependentItStarts(t *testing.T) {
	in := genInput(534)
	var switched bool
	for _, sg := range in.Suggestions {
		if r := sg.Rule; actionOf(r) == spec.ActionSwitch && r.AssessTask() == "D" && r.NumActOnTasks() == 1 && r.ActOnTask(0) == "E" {
			switched = true
		}
	}
	if !switched || !in.Tasks["D"].Running || !in.Tasks["E"].Running || len(in.Rules.Deps) == 0 {
		t.Fatalf("genInput(534) no longer draws a SWITCH from a running D to its running tight dependent E: %+v", in)
	}
	plan, _ := BuildPlan(in)
	if len(findOps(plan, OpStop, "D")) != 1 {
		t.Fatalf("plan = %v, want D stopped", plan.Ops)
	}
	if len(findOps(plan, OpStop, "E")) != 1 {
		t.Fatalf("plan = %v: E keeps running on its stopped tight parent D", plan.Ops)
	}
}
