package arbiter

import (
	"errors"
	"time"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// View is the arbiter's window onto the live workflow state, implemented by
// the orchestrator over the WMS and resource manager.
type View interface {
	// Snapshot returns the current TaskState of every composed task of the
	// workflow plus the free healthy core count.
	Snapshot(workflow string) (map[string]TaskState, int)
}

// ExecReport describes how much of a plan Actuation applied. Failed rounds
// used to be opaque — nothing recorded which operations completed before
// the abort — so the engine could not tell a fully-aborted round from one
// that stopped tasks and then failed to restart them.
type ExecReport struct {
	// Applied counts operations fully applied before the first failure.
	Applied int
	// Aborted counts operations not applied: the failed operation itself
	// plus everything after it that was never attempted.
	Aborted int
	// UnappliedStarts lists the START operations that did not apply (the
	// failed one, if it was a start, and all aborted ones). The engine
	// re-enqueues them as recovery entries of T_waiting so a task stopped
	// by an earlier operation of the same plan is restarted on a later
	// round instead of stranded.
	UnappliedStarts []Op
}

// Executor applies a finalized plan; implemented by the Actuation stage.
// Execute blocks the calling process until every operation has been applied
// (including graceful-termination waits) or an operation fails, and reports
// how much of the plan took effect either way.
type Executor interface {
	Execute(p *sim.Proc, plan Plan) (ExecReport, error)
}

// Record documents one arbitration round for the experiment harness.
type Record struct {
	Workflow string
	// ReceivedAt is when the suggestion batch arrived; PlannedAt when the
	// plan was finalized; ExecutedAt when Actuation finished applying it.
	ReceivedAt sim.Time
	PlannedAt  sim.Time
	ExecutedAt sim.Time
	// EventAt is the earliest data-generation time among the triggering
	// suggestions; ReceivedAt - EventAt is the detection lag and
	// ExecutedAt - ReceivedAt the arbitration+actuation response time.
	EventAt sim.Time
	// SuggestionIDs are the lifecycle-span IDs of the suggestions this
	// round arbitrated (after stale screening), for trace correlation.
	SuggestionIDs []string
	Plan          Plan
	Err           string
	// AppliedOps and AbortedOps split the plan's operations into those
	// Actuation applied and those it never finished; on successful rounds
	// AbortedOps is zero. Failed rounds previously reported nothing here,
	// undercounting the work half-applied plans actually did.
	AppliedOps int
	AbortedOps int
}

// ResponseTime is the arbitration-to-actuation-complete duration (the
// paper's "time to finalize the plan and wait for Actuation").
func (r Record) ResponseTime() time.Duration { return r.ExecutedAt - r.ReceivedAt }

// Config tunes the engine's guards.
type Config struct {
	// WarmupDelay discards all suggestions for this long after Start, so
	// every task makes initial progress (paper §4.4: 2 minutes).
	WarmupDelay time.Duration
	// SettleDelay discards suggestions for this long after a successfully
	// applied plan, letting the workflow state settle (paper §4.4: 2
	// minutes).
	SettleDelay time.Duration
	// PlanCost models the protocol's own computation time (small; the
	// paper reports the planning share of the response as low).
	PlanCost time.Duration
	// FailureCooldown discards suggestions for this long after a round
	// whose actuation failed mid-plan, so policies stop hammering a
	// half-applied state while the recovery entries re-enqueued from the
	// failed plan wait for the next round. It is the failure analogue of
	// SettleDelay (which only arms on success) and is deliberately shorter:
	// a failed round leaves tasks down, and recovery should not wait the
	// full settle window.
	FailureCooldown time.Duration
	// GatherWindow is how long the engine keeps collecting further
	// suggestions after the first one passes the guards, so that policies
	// firing for different tasks within the same evaluation period are
	// arbitrated together (e.g. all four Gray-Scott analyses suggest
	// ADDCPU within one frequency period and the plan must weigh them
	// jointly). It aligns with the policy frequency and — like the
	// frequency delay — is excluded from the reported response time.
	GatherWindow time.Duration
	// NoVictims disables preemption (ablation).
	NoVictims bool
	// ImmediateKill disables graceful termination (ablation).
	ImmediateKill bool
}

// DefaultConfig returns the paper's guard settings.
func DefaultConfig() Config {
	return Config{
		WarmupDelay:     2 * time.Minute,
		SettleDelay:     2 * time.Minute,
		FailureCooldown: 30 * time.Second,
		PlanCost:        100 * time.Millisecond,
		GatherWindow:    5 * time.Second,
	}
}

// Engine is the Arbitration stage runtime.
type Engine struct {
	s    *sim.Sim
	ep   *msg.Endpoint
	cfg  Config
	view View
	exec Executor

	rules map[string]*spec.WorkflowRules
	// waiting is T_waiting, tracked per workflow.
	waiting map[string][]WaitingTask

	startedAt   sim.Time
	settleUntil sim.Time
	started     bool

	// records lists executed rounds only, which is what the experiment
	// reports count; an empty round reaches the arbiter.empty_rounds
	// counter and its spans' "empty-plan" drop.
	records []Record
	proc    *sim.Proc
	tr      *trace.Recorder
	spawn   func(name string, fn func(*sim.Proc)) *sim.Proc
	// busy is true from the moment a suggestion batch passes the guards
	// until its round completes. Checkpoints must not be taken while busy:
	// the gather window and the executing plan live on the proc stack and
	// cannot be serialized. Drivers defer the checkpoint to the next
	// instant the engine is between rounds instead.
	busy bool
}

// New creates the Arbitration engine reading suggestion batches from its
// endpoint.
func New(s *sim.Sim, bus *msg.Bus, name string, cfg Config, rules map[string]*spec.WorkflowRules, view View, exec Executor) *Engine {
	if rules == nil {
		rules = map[string]*spec.WorkflowRules{}
	}
	return &Engine{
		s:       s,
		ep:      bus.Endpoint(name),
		cfg:     cfg,
		view:    view,
		exec:    exec,
		rules:   rules,
		waiting: make(map[string][]WaitingTask),
	}
}

// SetSpawner overrides how the engine spawns its process (the supervisor
// injects a panic-guarded spawner here). Call before Start.
func (e *Engine) SetSpawner(spawn func(name string, fn func(*sim.Proc)) *sim.Proc) {
	e.spawn = spawn
}

// Busy reports whether a round is in flight (gathering or executing a
// plan). Checkpoints are only coherent while not busy.
func (e *Engine) Busy() bool { return e.busy }

// SetTracer attaches the flight recorder for suggestion-span stamping and
// stage counters.
func (e *Engine) SetTracer(tr *trace.Recorder) { e.tr = tr }

// Records returns all executed arbitration rounds so far.
func (e *Engine) Records() []Record { return e.records }

// Waiting returns the current T_waiting queue for a workflow.
func (e *Engine) Waiting(workflow string) []WaitingTask { return e.waiting[workflow] }

// EnqueueWaiting seeds T_waiting (e.g. a task composed to wait for
// resources initially).
func (e *Engine) EnqueueWaiting(w WaitingTask) {
	e.waiting[w.Workflow] = append(e.waiting[w.Workflow], w)
}

// Start spawns the engine process. The warm-up window arms only on the
// first Start: an engine restarted after a checkpoint restore (or a
// supervisor stage restart) keeps its original startedAt so recovery does
// not re-enter warm-up and discard live suggestions.
func (e *Engine) Start() {
	if !e.started {
		e.startedAt = e.s.Now()
		e.started = true
	}
	e.busy = false
	if e.spawn != nil {
		e.proc = e.spawn("arbiter", e.run)
	} else {
		e.proc = e.s.Spawn("arbiter", e.run)
	}
}

// Stop interrupts the engine process.
func (e *Engine) Stop() {
	if e.proc != nil {
		e.proc.Interrupt(nil)
	}
}

func (e *Engine) run(p *sim.Proc) {
	for {
		env, err := e.ep.Recv(p)
		if err != nil {
			return
		}
		var batch []decision.Suggestion
		if err := env.Decode(&batch); err != nil || len(batch) == 0 {
			continue
		}
		now := e.s.Now()
		// Warm-up and settle guards.
		if now-e.startedAt < e.cfg.WarmupDelay || now < e.settleUntil {
			reason := "settle"
			if now-e.startedAt < e.cfg.WarmupDelay {
				reason = "warmup"
			}
			e.tr.Inc("arbiter.discarded_batches", 1)
			for _, sg := range batch {
				e.tr.Drop(sg.ID, reason, now)
			}
			continue
		}
		e.busy = true
		batch = e.gather(p, batch)
		if e.s.Stopped() {
			return // sim.Stop cut the gather short: no round happens
		}
		e.arbitrate(p, batch)
		if e.s.Stopped() {
			return
		}
		e.busy = false
	}
}

// gather collects further suggestion batches for the configured window, so
// same-period policy responses are arbitrated jointly.
func (e *Engine) gather(p *sim.Proc, batch []decision.Suggestion) []decision.Suggestion {
	if e.cfg.GatherWindow <= 0 {
		return batch
	}
	deadline := e.s.Now() + e.cfg.GatherWindow
	for {
		remaining := deadline - e.s.Now()
		if remaining <= 0 {
			return batch
		}
		step := 500 * time.Millisecond
		if remaining < step {
			step = remaining
		}
		if err := p.Sleep(step); err != nil {
			return batch
		}
		for {
			env, ok := e.ep.TryRecv()
			if !ok {
				break
			}
			var more []decision.Suggestion
			if err := env.Decode(&more); err == nil {
				batch = append(batch, more...)
			}
		}
	}
}

// Arbitrate runs one round synchronously for the given suggestions; used by
// the engine loop and directly by tests.
func (e *Engine) Arbitrate(p *sim.Proc, batch []decision.Suggestion) []Record {
	return e.arbitrate(p, batch)
}

func (e *Engine) arbitrate(p *sim.Proc, batch []decision.Suggestion) []Record {
	received := e.s.Now()
	var out []Record

	// Group suggestions by workflow; each workflow plans independently.
	byWF := map[string][]decision.Suggestion{}
	var order []string
	for _, sg := range batch {
		if _, seen := byWF[sg.Workflow]; !seen {
			order = append(order, sg.Workflow)
		}
		byWF[sg.Workflow] = append(byWF[sg.Workflow], sg)
	}

	for _, wf := range order {
		sgs := byWF[wf]
		tasks, free := e.view.Snapshot(wf)
		// Screen out stale suggestions: anything decided before the
		// assessed task's current incarnation launched describes a state
		// that no longer exists (the in-flight analogue of Decision's
		// post-restart metric screening).
		fresh := sgs[:0]
		for _, sg := range sgs {
			if st, ok := tasks[sg.AssessTask]; ok && st.StartedAt > 0 && sim.Time(sg.DecidedAt) < st.StartedAt {
				e.tr.Drop(sg.ID, "stale", received)
				e.tr.Inc("arbiter.stale_suggestions", 1)
				continue
			}
			fresh = append(fresh, sg)
		}
		sgs = fresh
		if len(sgs) == 0 {
			continue
		}
		ids := make([]string, 0, len(sgs))
		for _, sg := range sgs {
			if sg.ID != "" {
				ids = append(ids, sg.ID)
			}
			e.tr.Received(sg.ID, received)
		}
		in := PlanInput{
			Workflow:      wf,
			Suggestions:   sgs,
			Tasks:         tasks,
			FreeCores:     free,
			Rules:         e.rules[wf],
			Waiting:       e.waiting[wf],
			NoVictims:     e.cfg.NoVictims,
			ImmediateKill: e.cfg.ImmediateKill,
		}
		plan, stillWaiting := BuildPlan(in)
		// BuildPlan may have consumed Waiting entries (dedup, entries
		// resolved by tasks coming back on their own) even when the plan
		// came out empty, so the queue update must happen on every round.
		e.waiting[wf] = stillWaiting

		rec := Record{
			Workflow:      wf,
			ReceivedAt:    received,
			EventAt:       earliestEvent(sgs),
			SuggestionIDs: ids,
		}
		if plan.Empty() {
			// Nothing feasible or nothing to do: no settle window, but the
			// round must stay visible to the accounting.
			rec.PlannedAt = e.s.Now()
			e.tr.Inc("arbiter.empty_rounds", 1)
			for _, id := range ids {
				e.tr.Drop(id, "empty-plan", rec.PlannedAt)
			}
			continue
		}
		// Protocol computation cost.
		if e.cfg.PlanCost > 0 {
			if err := p.SleepUninterruptible(e.cfg.PlanCost); err != nil {
				return out
			}
		}
		rec.PlannedAt = e.s.Now()
		for _, id := range ids {
			e.tr.Planned(id, rec.PlannedAt)
		}

		rep, err := e.exec.Execute(p, plan)
		if errors.Is(err, sim.ErrStopped) {
			return out // sim.Stop mid-plan: the round never finished, so it leaves no record
		}
		rec.ExecutedAt = e.s.Now()
		rec.Plan = plan
		rec.AppliedOps = rep.Applied
		rec.AbortedOps = rep.Aborted
		for _, id := range ids {
			e.tr.Executed(id, rec.ExecutedAt)
		}
		e.tr.Inc("arbiter.rounds", 1)
		if err != nil {
			rec.Err = err.Error()
			e.tr.Inc("arbiter.failed_rounds", 1)
			// Mid-plan recovery: a START that never applied may belong to a
			// task an earlier op of this very plan stopped — abandoning it
			// strands the task forever (a gracefully stopped task exits 0,
			// so no failure policy ever fires for it). Re-enqueue every
			// unapplied START as a recovery entry of T_waiting; the next
			// round restarts it from whatever capacity is then available.
			e.requeue(wf, tasks, rep.UnappliedStarts)
			if e.cfg.FailureCooldown > 0 {
				// Stop suggestions from hammering the half-applied state,
				// but shorter than the success settle: tasks are down.
				e.settleUntil = e.s.Now() + e.cfg.FailureCooldown
			}
		} else if e.cfg.SettleDelay > 0 {
			// Let the workflow settle before considering new suggestions.
			e.settleUntil = e.s.Now() + e.cfg.SettleDelay
		}
		e.records = append(e.records, rec)
		out = append(out, rec)
	}
	return out
}

// requeue converts the unapplied START operations of a failed round into
// recovery entries of T_waiting. Recovery entries, unlike victim entries,
// may start from pre-existing free capacity on the next round (see
// BuildPlan): the plan that should have started them already released the
// resources, so waiting for new plan-freed surplus would strand them.
func (e *Engine) requeue(wf string, tasks map[string]TaskState, starts []Op) {
	for _, op := range starts {
		if isWaiting(e.waiting[wf], op.Task) {
			continue // an entry for the task is already queued
		}
		st := tasks[op.Task]
		e.waiting[wf] = append(e.waiting[wf], WaitingTask{
			Workflow:     wf,
			Task:         op.Task,
			Procs:        op.Procs,
			PerNode:      op.PerNode,
			CoresPerProc: st.CoresPerProc,
			Script:       op.Script,
			Recovery:     true,
		})
		e.tr.Inc("arbiter.requeued_tasks", 1)
	}
}

func earliestEvent(sgs []decision.Suggestion) sim.Time {
	var min sim.Time
	for i, sg := range sgs {
		t := sim.Time(sg.GeneratedAt)
		if i == 0 || t < min {
			min = t
		}
	}
	return min
}
