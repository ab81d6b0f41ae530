package arbiter

import (
	"errors"
	"slices"
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
	// Snapshot fills into, which the caller owns, with the current
	// TaskState of every composed task of the workflow, deleting any other
	// key, and returns the free healthy core count. The engine hands the
	// same map back every round, so a warm round whose task set has not
	// changed allocates nothing here; the view keeps no reference to it.
	Snapshot(workflow string, into map[string]TaskState) (free int)
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

// Record documents one executed arbitration round for the experiment
// harness. The engine appends it to the world's Rounds; no checkpoint
// holds it.
type Record struct {
	Workflow string
	// ReceivedAt is when the suggestion batch arrived; PlannedAt when the
	// plan was finalized; ExecutedAt when Actuation finished applying it.
	// ExecutedAt - ReceivedAt is the arbitration+actuation response time;
	// the detection lag is on the suggestions' spans.
	ReceivedAt sim.Time
	PlannedAt  sim.Time
	ExecutedAt sim.Time
	// SuggestionIDs are the lifecycle-span IDs of the suggestions this
	// round arbitrated (after stale screening), for trace correlation.
	SuggestionIDs []string
	Plan          Plan
	Err           string
	// AppliedOps and AbortedOps split the plan's operations into those
	// Actuation applied and those it never finished; on successful rounds
	// AbortedOps is zero.
	AppliedOps int
	AbortedOps int
}

// Rounds is a run's round log: every executed arbitration round, in
// execution order. The world owns it and hands it to each orchestrator it
// builds — the first one and every successor a kill restores — whose
// arbiter appends to it, so the log spans the whole run without a copy.
type Rounds []Record

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

	// rounds is the world's round log, which gets executed rounds only;
	// an empty round reaches the arbiter.empty_rounds counter and its
	// spans' "empty-plan" drop.
	rounds *Rounds
	proc   *sim.Proc
	tr     *trace.Recorder
	spawn  func(name string, fn func(*sim.Proc)) *sim.Proc
	// The stage counters on tr, resolved once.
	nDiscarded, nStale, nEmpty, nRounds, nFailed, nRequeued *trace.StageCounter
	// busy is true from the moment a suggestion batch passes the guards
	// until its round completes. Checkpoints must not be taken while busy:
	// the gather window and the executing plan live on the proc stack and
	// cannot be serialized. Drivers defer the checkpoint to the next
	// instant the engine is between rounds instead.
	busy bool

	// tasks holds each workflow's task view, filled in place by the View
	// every round. The buffers below are a round's scratch space: the
	// gathered rounds' suggestions, copied out of the rounds before they
	// are released, the batch's distinct workflows in first-seen
	// order, one workflow's screened suggestions, and the planner's. None
	// of them outlives its round; an executed round copies what its Record
	// keeps.
	tasks    map[string]map[string]TaskState
	gathered []decision.Suggestion
	wfs      []string
	sgBuf    []decision.Suggestion
	planner  planner
}

// New creates the Arbitration engine reading suggestion rounds from its
// endpoint; spawn starts its process (the orchestrator's supervisor hands
// in a panic-guarded spawner). It stamps suggestion spans and stage
// counters on tr and appends each executed round to rounds.
func New(s *sim.Sim, spawn func(name string, fn func(*sim.Proc)) *sim.Proc, bus *msg.Bus, name string, cfg Config, rules map[string]*spec.WorkflowRules, view View, exec Executor, tr *trace.Recorder, rounds *Rounds) *Engine {
	if rules == nil {
		rules = map[string]*spec.WorkflowRules{}
	}
	return &Engine{
		s:       s,
		spawn:   spawn,
		ep:      bus.Endpoint(name),
		cfg:     cfg,
		view:    view,
		exec:    exec,
		tr:      tr,
		rounds:  rounds,
		rules:   rules,
		waiting: make(map[string][]WaitingTask),
		tasks:   make(map[string]map[string]TaskState),

		nDiscarded: tr.StageCounter("arbiter.discarded_batches"),
		nStale:     tr.StageCounter("arbiter.stale_suggestions"),
		nEmpty:     tr.StageCounter("arbiter.empty_rounds"),
		nRounds:    tr.StageCounter("arbiter.rounds"),
		nFailed:    tr.StageCounter("arbiter.failed_rounds"),
		nRequeued:  tr.StageCounter("arbiter.requeued_tasks"),
	}
}

// Busy reports whether a round is in flight (gathering or executing a
// plan). Checkpoints are only coherent while not busy.
func (e *Engine) Busy() bool { return e.busy }

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
	e.proc = e.spawn("arbiter", e.run)
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
		r, err := msg.Payload[*decision.Round](&env)
		if err != nil {
			continue
		}
		if len(r.Sugs) == 0 {
			r.Release()
			continue
		}
		now := e.s.Now()
		// Warm-up and settle guards.
		if now-e.startedAt < e.cfg.WarmupDelay || now < e.settleUntil {
			reason := "settle"
			if now-e.startedAt < e.cfg.WarmupDelay {
				reason = "warmup"
			}
			e.nDiscarded.Add(1)
			for i := range r.Sugs {
				e.tr.Drop(r.Sugs[i].Seq, reason, now)
			}
			r.Release()
			continue
		}
		e.busy = true
		batch := e.gather(p, r)
		if e.s.Stopped() {
			return // sim.Stop cut the gather short: no round happens
		}
		e.Arbitrate(p, batch)
		if e.s.Stopped() {
			return
		}
		e.busy = false
	}
}

// gather copies round r into e.gathered and releases it, then collects
// further rounds the same way for the configured window, so same-period
// policy responses are arbitrated jointly. It returns e.gathered: the
// engine's own copy, which no sender writes while the round yields.
func (e *Engine) gather(p *sim.Proc, r *decision.Round) []decision.Suggestion {
	e.gathered = append(e.gathered[:0], r.Sugs...)
	r.Release()
	if e.cfg.GatherWindow <= 0 {
		return e.gathered
	}
	deadline := e.s.Now() + e.cfg.GatherWindow
	for {
		remaining := deadline - e.s.Now()
		if remaining <= 0 {
			return e.gathered
		}
		step := 500 * time.Millisecond
		if remaining < step {
			step = remaining
		}
		if err := p.Sleep(step); err != nil {
			return e.gathered
		}
		for {
			env, ok := e.ep.TryRecv()
			if !ok {
				break
			}
			if more, err := msg.Payload[*decision.Round](&env); err == nil {
				e.gathered = append(e.gathered, more.Sugs...)
				more.Release()
			}
		}
	}
}

// Arbitrate runs one round synchronously for the given suggestions; the
// engine loop calls it, and tests call it directly. It returns the rows
// the round appended to the round log, as a subslice of the log that an
// append cannot write through. Rounds share the engine's scratch buffers,
// so at most one may be in flight per engine.
func (e *Engine) Arbitrate(p *sim.Proc, batch []decision.Suggestion) []Record {
	received := e.s.Now()
	first := len(*e.rounds)

	// Each workflow plans independently, in first-seen order. The batch is
	// never written, and in the engine loop it is e.gathered, which holds
	// still across the round's yields: screening copies into e.sgBuf.
	e.wfs = e.wfs[:0]
	for i := range batch {
		if wf := batch[i].Rule.Workflow(); !slices.Contains(e.wfs, wf) {
			e.wfs = append(e.wfs, wf)
		}
	}

	for _, wf := range e.wfs {
		tasks := e.tasks[wf]
		if tasks == nil {
			tasks = make(map[string]TaskState)
			e.tasks[wf] = tasks
		}
		free := e.view.Snapshot(wf, tasks)
		// Screen out stale suggestions: anything decided before the
		// assessed task's current incarnation launched describes a state
		// that no longer exists (the in-flight analogue of Decision's
		// post-restart metric screening).
		sgs := e.sgBuf[:0]
		for i := range batch {
			sg := &batch[i]
			if sg.Rule.Workflow() != wf {
				continue
			}
			if st, ok := tasks[sg.Rule.AssessTask()]; ok && st.StartedAt > 0 && sim.Time(sg.DecidedAt) < st.StartedAt {
				e.tr.Drop(sg.Seq, "stale", received)
				e.nStale.Add(1)
				continue
			}
			sgs = append(sgs, *sg)
		}
		e.sgBuf = sgs
		if len(sgs) == 0 {
			continue
		}
		for i := range sgs {
			e.tr.Received(sgs[i].Seq, received)
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
		plan, stillWaiting := e.planner.build(in)
		// The planner may have consumed Waiting entries (dedup, entries
		// resolved by tasks coming back on their own) even when the plan
		// came out empty, so the queue update must happen on every round.
		e.waiting[wf] = stillWaiting

		if plan.Empty() {
			// Nothing feasible or nothing to do: no settle window, but the
			// round must stay visible to the accounting.
			plannedAt := e.s.Now()
			e.nEmpty.Add(1)
			for i := range sgs {
				e.tr.Drop(sgs[i].Seq, "empty-plan", plannedAt)
			}
			continue
		}
		// The round executes, so its Record goes into the round log: its
		// suggestions' IDs are formatted into it. An ID-less batch
		// keeps a non-nil, empty SuggestionIDs. sgs stays the round's own
		// across the yields below: e.sgBuf is only refilled by the next
		// round.
		rec := Record{
			Workflow:      wf,
			ReceivedAt:    received,
			SuggestionIDs: make([]string, 0, len(sgs)),
		}
		for i := range sgs {
			if id := sgs[i].ID(); id != "" {
				rec.SuggestionIDs = append(rec.SuggestionIDs, id)
			}
		}
		// Protocol computation cost.
		if e.cfg.PlanCost > 0 {
			if err := p.SleepUninterruptible(e.cfg.PlanCost); err != nil {
				return e.roundsSince(first)
			}
		}
		rec.PlannedAt = e.s.Now()
		for i := range sgs {
			e.tr.Planned(sgs[i].Seq, rec.PlannedAt)
		}

		rep, err := e.exec.Execute(p, plan)
		if errors.Is(err, sim.ErrStopped) {
			return e.roundsSince(first) // sim.Stop mid-plan: the round never finished, so it leaves no record
		}
		rec.ExecutedAt = e.s.Now()
		rec.Plan = plan
		rec.AppliedOps = rep.Applied
		rec.AbortedOps = rep.Aborted
		for i := range sgs {
			e.tr.Executed(sgs[i].Seq, rec.ExecutedAt)
		}
		e.nRounds.Add(1)
		if err != nil {
			rec.Err = err.Error()
			e.nFailed.Add(1)
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
		*e.rounds = append(*e.rounds, rec)
	}
	return e.roundsSince(first)
}

// roundsSince returns the round log's rows from first on, with no spare
// capacity, so an append to them cannot write into the log; nil when there
// are none.
func (e *Engine) roundsSince(first int) []Record {
	log := *e.rounds
	if len(log) == first {
		return nil
	}
	return log[first:len(log):len(log)]
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
		e.nRequeued.Add(1)
	}
}
