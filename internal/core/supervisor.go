package core

import (
	"fmt"
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
	// watchEvery is the watchdog's sampling cadence.
	watchEvery = 30 * time.Second
	// stallAfter is how long a stage's inbound queue may sit non-empty
	// without draining before the watchdog declares the stage stalled and
	// restarts it.
	stallAfter = 2 * time.Minute
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
	restarts     int
	lastProgress sim.Time
	lastPending  int
	down         bool // a restart is scheduled (or the stage was given up on)
	gaveUp       bool
}

// Supervisor wraps the orchestrator's stage processes with panic recovery
// and a liveness watchdog. A panicking stage process is absorbed (the
// simulation does not fail) and the stage is restarted after a bounded
// exponential backoff; a stage whose inbound queue stops draining is
// restarted the same way. A restart is Stop + Start on the stage's live
// state.
type Supervisor struct {
	o        *Orchestrator
	stages   map[string]*stageGuard
	proc     *sim.Proc
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
		restarts: o.Metrics.Counter("dyflow_stage_restarts_total",
			"Supervised stage restarts by stage and reason (panic, stall).", "stage", "reason"),
	}
}

// logf writes to the simulation's debug log (inert without one).
func (s *Supervisor) logf(format string, args ...any) {
	if s.o.env.Sim.Logf != nil {
		s.o.env.Sim.Logf("[%12s] supervisor: %s", s.o.env.Sim.Now(), fmt.Sprintf(format, args...))
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

func (s *Supervisor) onPanic(stage string) {
	if s.stopped {
		return
	}
	s.scheduleRestart(stage, "panic")
}

// scheduleRestart arms one restart of the stage after the backoff delay.
// Runs in kernel or process context; the restart itself runs as a timer
// event.
func (s *Supervisor) scheduleRestart(stage, reason string) {
	g := s.stages[stage]
	if g == nil || g.down {
		return
	}
	if g.restarts >= maxRestarts {
		if !g.gaveUp {
			g.gaveUp = true
			g.down = true
			s.logf("stage %q exceeded %d restarts, giving up", stage, maxRestarts)
		}
		return
	}
	delay := backoffBase << g.restarts
	if delay > backoffMax || delay <= 0 {
		delay = backoffMax
	}
	g.down = true
	g.restarts++
	s.restarts.With(stage, reason).Inc()
	s.o.Trace.Inc("supervisor.restarts", 1)
	s.logf("restarting stage %q in %s (reason: %s, restart #%d)", stage, delay, reason, g.restarts)
	s.o.env.Sim.After(delay, func() {
		if s.stopped {
			return
		}
		g.down = false
		g.lastProgress = s.o.env.Sim.Now()
		g.lastPending = 0
		s.o.restartStage(stage)
	})
}

// Start spawns the watchdog process.
func (s *Supervisor) Start() {
	s.stopped = false
	s.proc = s.o.env.Sim.Spawn("supervisor", s.watch)
}

// Stop halts supervision: the watchdog exits and pending restarts are
// abandoned. Idempotent.
func (s *Supervisor) Stop() {
	s.stopped = true
	if s.proc != nil {
		s.proc.Interrupt(nil)
	}
}

// watch is the watchdog process: it samples each endpoint-fed stage's
// inbound queue and restarts a stage whose queue sits non-empty without
// draining for stallAfter — the liveness heartbeat of a stage is that it
// consumes its input.
func (s *Supervisor) watch(p *sim.Proc) {
	for {
		if err := p.Sleep(watchEvery); err != nil {
			return
		}
		if s.stopped {
			return
		}
		s.check(StageMonitorServer, s.o.Bus.Endpoint(EndpointMonitorServer).Pending(), false)
		s.check(StageDecision, s.o.Bus.Endpoint(EndpointDecision).Pending(), false)
		// A busy arbiter legitimately queues messages while gathering and
		// executing; only an idle one with a backlog is stalled.
		s.check(StageArbiter, s.o.Bus.Endpoint(EndpointArbiter).Pending(), s.o.Arbiter.Busy())
	}
}

func (s *Supervisor) check(stage string, pending int, busy bool) {
	g := s.stages[stage]
	now := s.o.env.Sim.Now()
	if g.lastProgress == 0 || pending == 0 || pending < g.lastPending || busy || g.down {
		g.lastProgress = now
	} else if now-g.lastProgress >= stallAfter {
		s.scheduleRestart(stage, "stall")
		g.lastProgress = now
	}
	g.lastPending = pending
}

// restartStage stops and restarts one stage on its live state. Bus queues
// are left live too, so messages queued while the stage was down still get
// consumed.
func (o *Orchestrator) restartStage(stage string) {
	switch stage {
	case StageMonitorServer:
		o.Server.Stop()
		o.Server.Start()
	case StageMonitorClient:
		for _, c := range o.Clients {
			c.Stop()
			c.Start()
		}
	case StageDecision:
		o.Decision.Stop()
		o.Decision.Start()
	case StageArbiter:
		o.Arbiter.Stop()
		o.Arbiter.Start()
	}
}
