// Package core assembles DYFLOW's four stages — Monitor (sensor), Decision
// (decision), Arbitration (arbiter), and Actuation (actuate) — into a
// running orchestration service alongside the workflow management system,
// mirroring the paper's implementation (Figure 2): a bootstrap that parses
// the user's XML specification and starts the stage services, connected by
// JSON messages over shared queues, with Actuation plugged into Savanna.
package core

import (
	"dyflow/internal/core/actuate"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/task"
	"dyflow/internal/trace"
	"dyflow/internal/wms"
)

// Endpoint names on the orchestration bus.
const (
	EndpointMonitorServer = "monitor-server"
	EndpointDecision      = "decision"
	EndpointArbiter       = "arbiter"
)

// Options tunes the orchestrator.
type Options struct {
	// Arbiter configures warm-up/settle guards and plan cost; a zero value
	// takes DefaultConfig.
	Arbiter arbiter.Config
}

// Orchestrator is a running DYFLOW service bound to one Savanna runtime.
type Orchestrator struct {
	Bus      *msg.Bus
	Server   *sensor.Server
	Client   *sensor.Client
	Decision *decision.Engine
	Arbiter  *arbiter.Engine
	Executor *actuate.Executor
	// Trace is the flight recorder threaded through all four stages; its
	// Report() is the §4.6 per-stage latency decomposition. It is the
	// world's, handed to every orchestrator built over that world, and the
	// stages publish into its registry.
	Trace *trace.Recorder
	// Supervisor guards the stage processes.
	Supervisor *Supervisor

	env      *task.Env
	detached bool
	stopped  bool
}

// New builds (but does not start) an orchestrator for the compiled user
// specification over the given Savanna runtime, recording on tr; its
// arbiter appends each executed round to rounds. Both are the world's,
// handed to every orchestrator built over that world.
func New(env *task.Env, sv *wms.Savanna, cfg *spec.Config, opts Options, tr *trace.Recorder, rounds *arbiter.Rounds) *Orchestrator {
	zero := arbiter.Config{}
	if opts.Arbiter == zero {
		opts.Arbiter = arbiter.DefaultConfig()
	}
	bus := msg.NewBus(env.Sim)
	o := &Orchestrator{
		Bus:   bus,
		Trace: tr,
		env:   env,
	}
	bus.OnDepth = o.Trace.QueueDepth
	bus.Encode, bus.Decode = encodePayload, decodePayload

	// Stage supervision: every stage process runs panic-guarded so a stage
	// crash is absorbed and restarted instead of failing the simulation.
	o.Supervisor = newSupervisor(o)

	// Monitor: the server and one client over every target.
	o.Server = sensor.NewServer(env.Sim, o.Supervisor.spawner(StageMonitorServer), bus, EndpointMonitorServer, EndpointDecision, cfg, o.Trace)
	o.Client = sensor.NewClient("monitor-client-0", env, bus, EndpointMonitorServer, cfg, cfg.Targets, &savannaWorkload{sv: sv},
		o.Supervisor.spawner(StageMonitorClient), tr.Registry())

	// Decision.
	o.Decision = decision.New(env.Sim, o.Supervisor.spawner(StageDecision), bus, EndpointDecision, EndpointArbiter, cfg, o.Trace)

	// Actuation: the Savanna plugin.
	o.Executor = actuate.NewExecutor(&actuate.SavannaPlugin{SV: sv}, o.Trace)

	// Arbitration.
	view := &savannaView{sv: sv}
	o.Arbiter = arbiter.New(env.Sim, o.Supervisor.spawner(StageArbiter), bus, EndpointArbiter, opts.Arbiter, cfg.Rules, view, o.Executor, o.Trace, rounds)

	// Keep Decision consistent with runtime changes: a (re)started task's
	// stale history must not immediately re-trigger policies. Detached
	// (crashed) orchestrators share the Savanna with their replacement and
	// must stop reacting to its events.
	sv.OnEvent(func(ev wms.Event) {
		if o.detached {
			return
		}
		if ev.Kind == wms.TaskStarted {
			o.Decision.ResetTask(ev.Workflow, ev.Task)
		}
	})
	return o
}

// Start launches all stage services (the bootstrap step) and arms the
// stage supervisor's restarts.
func (o *Orchestrator) Start() {
	o.stopped = false
	o.Server.Start()
	o.Client.Start()
	o.Decision.Start()
	o.Arbiter.Start()
	o.Supervisor.Start()
}

// Stop interrupts all stage services. Idempotent: a second Stop — or a
// Stop before Start — is a no-op.
func (o *Orchestrator) Stop() {
	if o.stopped {
		return
	}
	o.stopped = true
	// Supervisor first, so a stage that panics during teardown is not
	// restarted.
	o.Supervisor.Stop()
	o.Client.Stop()
	o.Server.Stop()
	o.Decision.Stop()
	o.Arbiter.Stop()
}

// Detach permanently disconnects the orchestrator from the shared Savanna's
// event callbacks. The chaos harness calls it on a "crashed" orchestrator
// so the instance restored in its place is the only one reacting.
func (o *Orchestrator) Detach() {
	o.detached = true
}

// NewArbiterView exposes the Savanna-backed arbiter View for harnesses
// that drive the Arbitration engine directly (e.g. the chaos tests, which
// need precisely timed rounds instead of the policy pipeline).
func NewArbiterView(sv *wms.Savanna) arbiter.View { return &savannaView{sv: sv} }

// savannaWorkload adapts Savanna to the monitor clients' Workload view.
type savannaWorkload struct{ sv *wms.Savanna }

func (w *savannaWorkload) Placement(workflow, taskName string) task.Placement {
	in := w.sv.Instance(workflow, taskName)
	if in == nil {
		return nil
	}
	return in.Placement
}

// savannaView adapts Savanna to the arbiter's View: the snapshot of every
// composed task plus free healthy cores. It keeps no state of its own; the
// engine owns the map it fills.
type savannaView struct{ sv *wms.Savanna }

func (v *savannaView) Snapshot(workflow string, into map[string]arbiter.TaskState) int {
	clear(into)
	wf := v.sv.Workflow(workflow)
	if wf == nil {
		return v.sv.Manager().FreeCores()
	}
	for _, cfg := range wf.Tasks {
		name := cfg.Spec.Name
		st := arbiter.TaskState{
			Procs:        cfg.Procs,
			PerNode:      cfg.ProcsPerNode,
			CoresPerProc: cfg.CoresPerProc,
			Script:       cfg.StartScript,
		}
		if in := v.sv.Instance(workflow, name); in != nil {
			st.Running = in.Alive()
			// The last incarnation's size is what a RESTART brings back.
			st.Procs = in.Placement.Procs()
			st.StartedAt = in.StartedAt()
			// A task resized away from its composed shape can no longer
			// honor the initial per-node packing; restarts place it
			// wherever healthy cores are free.
			if st.Procs != cfg.Procs {
				st.PerNode = 0
			}
		}
		into[name] = st
	}
	return v.sv.Manager().FreeCores()
}
