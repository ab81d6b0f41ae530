package core

import (
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// Stage names used by the supervisor and the restart metric.
const (
	StageMonitorServer = "monitor-server"
	StageMonitorClient = "monitor-client"
	StageDecision      = "decision"
	StageArbiter       = "arbiter"
)

// The supervision policy.
const (
	// backoffBase is the delay before the first restart of a stage;
	// subsequent restarts double it up to backoffMax.
	backoffBase = time.Second
	backoffMax  = 2 * time.Minute
	// maxRestarts bounds restarts per stage; past it the supervisor gives
	// up and leaves the stage down (a crash loop must not spin forever).
	maxRestarts = 8
)

// stageGuard tracks one stage's supervision state.
type stageGuard struct {
	restarts int
	down     bool // a restart is scheduled (or the stage was given up on)
}

// Supervisor wraps the orchestrator's stage processes with panic recovery.
// A panicking stage process is absorbed (the simulation does not fail) and
// the stage is restarted after a bounded exponential backoff. A restart is
// Stop + Start on the stage's live state. A stage that is up and not
// mid-round drains its inbox within the instant a message arrives
// (TestProperty_Supervisor_InboxesDrainWithinInstant), so a panic is the
// only failure supervised.
type Supervisor struct {
	o        *Orchestrator
	stages   map[string]*stageGuard
	stopped  bool
	restarts *obs.CounterVec // dyflow_stage_restarts_total{stage,reason}
}

func newSupervisor(o *Orchestrator) *Supervisor {
	return &Supervisor{
		o: o,
		stages: map[string]*stageGuard{
			StageMonitorServer: {},
			StageMonitorClient: {},
			StageDecision:      {},
			StageArbiter:       {},
		},
		// The help text is part of every world's metrics artifact, so it
		// keeps naming the stall reason no restart gives any more.
		restarts: o.Trace.Registry().Counter("dyflow_stage_restarts_total",
			"Supervised stage restarts by stage and reason (panic, stall).", "stage", "reason"),
	}
}

// spawner returns the guarded spawner injected into a stage: a panic in
// the stage process is absorbed and triggers a supervised restart.
func (s *Supervisor) spawner(stage string) func(name string, fn func(*sim.Proc)) *sim.Proc {
	return func(name string, fn func(*sim.Proc)) *sim.Proc {
		return s.o.env.Sim.SpawnGuarded(name, fn, func(recovered any) {
			s.onPanic(stage)
		})
	}
}

// onPanic arms one restart of the panicked stage after the backoff delay,
// unless supervision is stopped. It runs on the panicked process's turn;
// the restart itself runs as a timer event.
func (s *Supervisor) onPanic(stage string) {
	g := s.stages[stage]
	if s.stopped || g == nil || g.down {
		return
	}
	if g.restarts >= maxRestarts {
		g.down = true
		return
	}
	delay := backoffBase << g.restarts
	if delay > backoffMax || delay <= 0 {
		delay = backoffMax
	}
	g.down = true
	g.restarts++
	s.restarts.With(stage, "panic").Inc()
	s.o.env.Sim.After(delay, func() {
		if s.stopped {
			return
		}
		g.down = false
		s.o.restartStage(stage)
	})
}

// Start arms supervised restarts.
func (s *Supervisor) Start() { s.stopped = false }

// Stop disarms supervision: a later panic schedules no restart, and
// pending restarts are abandoned. Idempotent.
func (s *Supervisor) Stop() { s.stopped = true }

// restartStage stops and restarts one stage on its live state. Bus queues
// are left live too, so messages queued while the stage was down still get
// consumed.
func (o *Orchestrator) restartStage(stage string) {
	switch stage {
	case StageMonitorServer:
		o.Server.Stop()
		o.Server.Start()
	case StageMonitorClient:
		o.Client.Stop()
		o.Client.Start()
	case StageDecision:
		o.Decision.Stop()
		o.Decision.Start()
	case StageArbiter:
		o.Arbiter.Stop()
		o.Arbiter.Start()
	}
}
