// Package core assembles DYFLOW's four stages — Monitor (sensor), Decision
// (decision), Arbitration (arbiter), and Actuation (actuate) — into a
// running orchestration service alongside the workflow management system,
// mirroring the paper's implementation (Figure 2): a bootstrap that parses
// the user's XML specification and starts the stage services, connected by
// JSON messages over shared queues, with Actuation plugged into Savanna.
package core

import (
	"fmt"
	"strings"
	"time"

	"dyflow/internal/core/actuate"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
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
	// MonitorClients is the number of monitor client services the targets
	// are sharded across (the paper launches clients per scaling needs).
	// Default 1.
	MonitorClients int
	// SensorCosts calibrates sensor acquisition costs; zero fields take
	// the defaults.
	SensorCosts sensor.Costs
	// Arbiter configures warm-up/settle guards and plan cost; a zero value
	// takes DefaultConfig.
	Arbiter arbiter.Config
	// Retry overrides Actuation's transient-failure retry budget; nil
	// keeps actuate.DefaultRetryPolicy.
	Retry *actuate.RetryPolicy
	// BusLatency, if non-nil, models message transport latency.
	BusLatency func(from, to string) time.Duration
	// Metrics is the unified metrics registry the orchestrator publishes
	// into; nil creates a private one (always available on the
	// Orchestrator).
	Metrics *obs.Registry
}

// Orchestrator is a running DYFLOW service bound to one Savanna runtime.
type Orchestrator struct {
	Config   *spec.Config
	Savanna  *wms.Savanna
	Bus      *msg.Bus
	Server   *sensor.Server
	Clients  []*sensor.Client
	Decision *decision.Engine
	Arbiter  *arbiter.Engine
	Executor *actuate.Executor
	// Trace is the flight recorder threaded through all four stages; its
	// Report() is the §4.6 per-stage latency decomposition.
	Trace *trace.Recorder
	// Metrics is the unified metrics registry: flight-recorder mirrors plus
	// whatever substrate packages the harness wired in. Serves /metrics.
	Metrics *obs.Registry
	// Supervisor guards the stage processes.
	Supervisor *Supervisor

	env      *task.Env
	detached bool
	stopped  bool
}

// New builds (but does not start) an orchestrator for the compiled user
// specification over the given Savanna runtime.
func New(env *task.Env, sv *wms.Savanna, cfg *spec.Config, opts Options) *Orchestrator {
	if opts.MonitorClients <= 0 {
		opts.MonitorClients = 1
	}
	zero := arbiter.Config{}
	if opts.Arbiter == zero {
		opts.Arbiter = arbiter.DefaultConfig()
	}
	bus := msg.NewBus(env.Sim)
	bus.Latency = opts.BusLatency

	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	o := &Orchestrator{
		Config:  cfg,
		Savanna: sv,
		Bus:     bus,
		Trace:   trace.New(),
		Metrics: opts.Metrics,
		env:     env,
	}
	o.Trace.SetMetrics(o.Metrics)
	bus.OnDepth = o.Trace.QueueDepth

	// Monitor: server plus sharded clients.
	o.Server = sensor.NewServer(env.Sim, bus, EndpointMonitorServer, EndpointDecision, cfg)
	workload := &savannaWorkload{sv: sv}
	for i := 0; i < opts.MonitorClients; i++ {
		var shard []spec.MonitorTarget
		for j, tg := range cfg.Targets {
			if j%opts.MonitorClients == i {
				shard = append(shard, tg)
			}
		}
		name := fmt.Sprintf("monitor-client-%d", i)
		cl := sensor.NewClient(name, env, bus, EndpointMonitorServer, cfg, shard, workload, opts.SensorCosts)
		cl.SetSelfSource(&selfSource{o: o})
		cl.SetMetrics(opts.Metrics)
		o.Clients = append(o.Clients, cl)
	}

	// Decision.
	o.Decision = decision.New(env.Sim, bus, EndpointDecision, EndpointArbiter, cfg)

	// Actuation: the Savanna plugin.
	o.Executor = actuate.NewExecutor(&actuate.SavannaPlugin{SV: sv})
	if opts.Retry != nil {
		o.Executor.SetRetryPolicy(*opts.Retry)
	}

	// Arbitration.
	view := &savannaView{sv: sv}
	o.Arbiter = arbiter.New(env.Sim, bus, EndpointArbiter, opts.Arbiter, cfg.Rules, view, o.Executor)

	// Thread the flight recorder through all four stages.
	o.Server.SetTracer(o.Trace)
	o.Decision.SetTracer(o.Trace)
	o.Arbiter.SetTracer(o.Trace)
	o.Executor.SetTracer(o.Trace)

	// Stage supervision: every stage process runs panic-guarded so a stage
	// crash is absorbed and restarted instead of failing the simulation.
	o.Supervisor = newSupervisor(o)
	o.Server.SetSpawner(o.Supervisor.spawner(StageMonitorServer))
	for _, cl := range o.Clients {
		cl.SetSpawner(o.Supervisor.spawner(StageMonitorClient))
	}
	o.Decision.SetSpawner(o.Supervisor.spawner(StageDecision))
	o.Arbiter.SetSpawner(o.Supervisor.spawner(StageArbiter))

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

// Start launches all stage services (the bootstrap step) and the stage
// supervisor's watchdog.
func (o *Orchestrator) Start() {
	o.stopped = false
	o.Server.Start()
	for _, c := range o.Clients {
		c.Start()
	}
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
	// Supervisor first, so stage teardown is not mistaken for a crash.
	o.Supervisor.Stop()
	for _, c := range o.Clients {
		c.Stop()
	}
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

// selfSource resolves dyflow-source sensor metric names against the
// orchestrator's own observability state, in precedence order:
//
//	sensor.lag_p50:<id> / sensor.lag_p99:<id> — a sensor's detection-lag
//	    quantile in seconds (histogram-bucket resolution)
//	queue.max:<endpoint> — the endpoint's high-water bus queue depth
//	<registry family name> — the summed value of a registry family
//	    (e.g. dyflow_wms_placement_losses_total)
//	<flight-recorder counter> — any stage counter (arbiter.requeued_tasks,
//	    actuate.retries, ...); unknown counters read 0, so this arm always
//	    resolves — policies on not-yet-incremented counters see 0, not a
//	    dead sensor.
type selfSource struct{ o *Orchestrator }

func (s *selfSource) MetricValue(name string) (float64, bool) {
	switch {
	case strings.HasPrefix(name, "sensor.lag_p50:"):
		return s.o.Trace.SensorLagQuantile(strings.TrimPrefix(name, "sensor.lag_p50:"), 0.50).Seconds(), true
	case strings.HasPrefix(name, "sensor.lag_p99:"):
		return s.o.Trace.SensorLagQuantile(strings.TrimPrefix(name, "sensor.lag_p99:"), 0.99).Seconds(), true
	case strings.HasPrefix(name, "queue.max:"):
		return float64(s.o.Trace.QueueMaxDepth(strings.TrimPrefix(name, "queue.max:"))), true
	}
	if v, ok := s.o.Metrics.Value(name); ok {
		return v, true
	}
	return float64(s.o.Trace.Counter(name)), true
}

// savannaWorkload adapts Savanna to the monitor clients' Workload view.
type savannaWorkload struct{ sv *wms.Savanna }

func (w *savannaWorkload) Placement(workflow, taskName string) task.Placement {
	in := w.sv.Instance(workflow, taskName)
	if in == nil {
		return nil
	}
	return in.Placement
}

func (w *savannaWorkload) TaskRunning(workflow, taskName string) bool {
	return w.sv.TaskRunning(workflow, taskName)
}

// savannaView adapts Savanna to the arbiter's View: the snapshot of every
// composed task plus free healthy cores.
type savannaView struct{ sv *wms.Savanna }

func (v *savannaView) Snapshot(workflow string) (map[string]arbiter.TaskState, int) {
	out := make(map[string]arbiter.TaskState)
	wf := v.sv.Workflow(workflow)
	if wf == nil {
		return out, v.sv.Manager().Free().Total()
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
		out[name] = st
	}
	return out, v.sv.Manager().Free().Total()
}
