// Package exp is the experiment harness: it builds complete simulated
// worlds (cluster + resource manager + Savanna + DYFLOW), runs the paper's
// scenarios, records traces, and regenerates every table and figure of the
// evaluation section (see DESIGN.md §5 for the experiment index).
package exp

import (
	"errors"
	"fmt"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/spec"
	"dyflow/internal/db"
	"dyflow/internal/fsim"
	"dyflow/internal/obs"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// World is a complete simulated deployment.
type World struct {
	Sim     *sim.Sim
	Cluster *cluster.Cluster
	RM      *resmgr.Manager
	Env     *task.Env
	SV      *wms.Savanna
	Orch    *core.Orchestrator // nil for baseline (no-DYFLOW) runs
	Rec     *Recorder
	// Metrics is the world-wide registry: the resource manager, Savanna,
	// the stream registry, and (once started) the orchestrator all publish
	// into it. Serves `dyflow-exp serve`'s /metrics.
	Metrics *obs.Registry

	// OnProgress, when set, is called after every tick of the driver loop
	// that advances the world, with the current virtual time, and is the
	// only way a caller interleaves with a running world: the campaign
	// service reports progress and cancels through it, and `dyflow-exp
	// serve` hands the world to its HTTP handlers between ticks. Returning a
	// non-nil error aborts the run with that error.
	OnProgress func(now sim.Time) error

	// The compiled spec and options are retained so a crashed orchestrator
	// can be rebuilt for checkpoint restore.
	orchCfg  *spec.Config
	orchOpts core.Options
	// campaign is the chaos scenario's node kill/heal campaign, nil in the
	// other worlds; its events are drawn on the Perfetto timeline.
	campaign *cluster.Campaign
}

// Variant adjusts one scenario run without changing what the scenario is.
// The zero value runs the scenario as the paper's experiment does.
type Variant struct {
	// XML, when non-empty, replaces the scenario's orchestration document —
	// the campaign service threads user-submitted specs through here.
	XML string
	// Arbiter, when set, replaces the scenario's arbitration guards (the
	// ablation benchmarks switch guards off here).
	Arbiter *arbiter.Config
	// Configure, when set, is called on the freshly built world before
	// anything runs in it; the campaign service attaches OnProgress here.
	Configure func(*World) error
}

// NewWorld builds a world on the given machine with nodes allocated to the
// job.
func NewWorld(seed int64, m apps.Machine, nodes int) (*World, error) {
	s := sim.New(seed)
	var c *cluster.Cluster
	if m == apps.Summit {
		c = cluster.Summit(s, nodes)
	} else {
		c = cluster.Deepthought2(s, nodes)
	}
	rm := resmgr.New(c)
	if _, err := rm.Allocate(nodes); err != nil {
		return nil, err
	}
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s), DB: db.New(s, 0)}
	w := &World{
		Sim:     s,
		Cluster: c,
		RM:      rm,
		Env:     env,
		SV:      wms.New(env, rm),
		Rec:     NewRecorder(s),
		Metrics: obs.NewRegistry(),
	}
	w.RM.SetMetrics(w.Metrics)
	w.SV.SetMetrics(w.Metrics)
	env.Streams.SetMetrics(w.Metrics)
	w.Rec.AttachWMS(w.SV)
	return w, nil
}

// StartOrchestration compiles the DYFLOW XML, builds the orchestrator, and
// starts its stage services. Call before Launch.
func (w *World) StartOrchestration(xml string, opts core.Options) error {
	cfg, err := spec.CompileString(xml)
	if err != nil {
		return err
	}
	if opts.Metrics == nil {
		opts.Metrics = w.Metrics
	}
	w.orchCfg = cfg
	w.orchOpts = opts
	w.Orch = core.New(w.Env, w.SV, cfg, opts)
	w.Rec.AttachOrchestrator(w.Orch)
	w.Orch.Start()
	return nil
}

// RestartOrchestrator kills the orchestrator and restores its successor
// from its checkpoint. The killed instance is checkpointed, detached from
// shared substrate callbacks and stopped — the checkpoint is taken before
// Stop, because teardown closes stream readers and their buffered backlog
// must make it into the snapshot. A fresh orchestrator over the same
// compiled spec is restored from that blob and started; it takes over the
// recorder's plan/metric feeds, and the shared metrics registry keeps its
// accumulated series. Call from driver context (between Sim.Run calls)
// while the arbiter is not mid-round.
func (w *World) RestartOrchestrator() error {
	blob, err := w.Orch.Checkpoint()
	if err != nil {
		return err
	}
	w.Orch.Detach()
	w.Orch.Stop()
	o := core.New(w.Env, w.SV, w.orchCfg, w.orchOpts)
	if err := o.Restore(blob); err != nil {
		return err
	}
	w.Orch = o
	w.Rec.AttachOrchestrator(o)
	o.Start()
	return nil
}

// orchestrate starts DYFLOW on the world with the scenario's document and
// orchestrator options, or the variant's document and guards where it sets
// them.
func (w *World) orchestrate(v Variant, xml string, opts core.Options) error {
	if v.XML != "" {
		xml = v.XML
	}
	if v.Arbiter != nil {
		opts.Arbiter = *v.Arbiter
	}
	return w.StartOrchestration(xml, opts)
}

// launch hands the world to the variant's Configure hook and then launches
// the workflow, so nothing has run in the world when the hook sees it.
func (w *World) launch(v Variant, workflowID string) error {
	if v.Configure != nil {
		if err := v.Configure(w); err != nil {
			return err
		}
	}
	w.Launch(workflowID)
	return nil
}

// Close ends the world's life: the simulation is stopped and every process
// goroutine parked in it exits, which is what lets the garbage collector
// take the world once its owner drops it. Whoever built the world — or was
// handed it by a runner — calls Close after its last Run. Closing changes
// nothing a reader can see (sim.Stop is inert), so a closed world still
// renders its Gantt chart, artifacts and counters. Idempotent.
func (w *World) Close() { w.Sim.Stop() }

// Launch starts the named workflows from a driver process.
func (w *World) Launch(workflows ...string) {
	w.Sim.Spawn("driver", func(p *sim.Proc) {
		for _, wf := range workflows {
			err := w.SV.Launch(p, wf)
			if errors.Is(err, sim.ErrStopped) {
				return // the world was closed mid-launch
			}
			if err != nil {
				panic(fmt.Sprintf("launch %s: %v", wf, err))
			}
		}
	})
}

// Run advances the world to the horizon.
func (w *World) Run(horizon time.Duration) error { return w.Sim.Run(horizon) }

// drive is the loop every scenario runner advances its world with. It runs
// the simulation one tick at a time up to the horizon and, after every
// tick, calls OnProgress and then check. It returns once check reports the
// run done, once OnProgress or check fails, or once nothing is left to
// happen. Each scenario keeps its own tick and horizon: where a run ends,
// and so what its artifacts hold, depends on both.
func (w *World) drive(horizon, tick time.Duration, check func() (done bool, err error)) error {
	for w.Sim.Now() < horizon {
		if err := w.Sim.Run(w.Sim.Now() + tick); err != nil {
			return err
		}
		if w.OnProgress != nil {
			if err := w.OnProgress(w.Sim.Now()); err != nil {
				return err
			}
		}
		if done, err := check(); done || err != nil {
			return err
		}
		if w.Sim.Pending() == 0 {
			return nil
		}
	}
	return nil
}

// Plans returns the arbitration rounds the world's orchestrator has
// executed, those it inherited through a checkpoint restore included, in
// execution order; nil for a baseline world that runs no orchestrator.
func (w *World) Plans() []arbiter.Record {
	if w.Orch == nil {
		return nil
	}
	return w.Orch.Arbiter.Records()
}

// WorkflowDone reports whether every composed task of the workflow has
// terminated (none running).
func (w *World) WorkflowDone(workflowID string) bool {
	return !w.SV.AnyRunning(workflowID)
}

// RunUntilWorkflowDone advances, one second a tick, until the workflow has
// had no running tasks for a 30-second grace window (so restart gaps — a
// failed task waiting for its RESTART plan, or an alternation handover — do
// not read as completion) or the horizon passes. It returns the instant the
// workflow was first observed idle.
func (w *World) RunUntilWorkflowDone(workflowID string, horizon time.Duration) (sim.Time, error) {
	const grace = 30 * time.Second
	started := false
	idleSince, end := sim.Time(-1), sim.Time(-1)
	err := w.drive(horizon, time.Second, func() (bool, error) {
		switch {
		case w.SV.AnyRunning(workflowID):
			started = true
			idleSince = -1
		case started:
			if idleSince < 0 {
				idleSince = w.Sim.Now()
			}
			if w.Sim.Now()-idleSince >= grace {
				end = idleSince
			}
		}
		return end >= 0, nil
	})
	if err != nil {
		return 0, err
	}
	if end < 0 {
		end = w.Sim.Now()
	}
	return end, nil
}
