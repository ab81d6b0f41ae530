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
	"dyflow/internal/ckpt"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
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

	// OnProgress, when set, is invoked after every incremental advance of
	// the driver loops (RunUntilWorkflowDone, the scenario step loops,
	// ChaosRun.Step) with the current virtual time. Returning a non-nil
	// error aborts the run with that error — the campaign service uses this
	// for live progress reporting and cooperative cancellation.
	OnProgress func(now sim.Time) error

	// The compiled spec and options are retained so a crashed orchestrator
	// can be rebuilt for checkpoint restore.
	orchCfg  *spec.Config
	orchOpts core.Options
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

// AttachCheckpointStore opens (or creates) a checkpoint store in dir and
// attaches it to the running orchestrator: Checkpoint() saves there and
// arbitration rounds are journaled as they complete.
func (w *World) AttachCheckpointStore(dir string) error {
	st, err := ckpt.NewStore(dir)
	if err != nil {
		return err
	}
	w.Orch.SetStore(st)
	return nil
}

// CrashOrchestrator checkpoints the orchestrator and then kills it:
// detached from shared substrate callbacks and stopped. The checkpoint is
// taken before Stop — teardown closes stream readers, and their buffered
// backlog must make it into the snapshot. Call from driver context (between
// Sim.Run calls) while the arbiter is not mid-round.
func (w *World) CrashOrchestrator() error {
	if err := w.Orch.Checkpoint(); err != nil {
		return err
	}
	w.Orch.Detach()
	w.Orch.Stop()
	return nil
}

// RestoreOrchestrator builds a fresh orchestrator over the same compiled
// spec, restores it from the crashed instance's checkpoint store (snapshot
// plus journal replay), and starts it. The restored instance takes over the
// recorder's plan/metric feeds; the shared metrics registry keeps its
// accumulated series.
func (w *World) RestoreOrchestrator() error {
	store := w.Orch.Store()
	o := core.New(w.Env, w.SV, w.orchCfg, w.orchOpts)
	if err := core.Restore(o, store); err != nil {
		return err
	}
	o.SetStore(store)
	w.Orch = o
	w.Rec.AttachOrchestrator(o)
	o.Start()
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

// progress fires the OnProgress hook (when set) with the current time.
func (w *World) progress() error {
	if w.OnProgress == nil {
		return nil
	}
	return w.OnProgress(w.Sim.Now())
}

// WorkflowDone reports whether every composed task of the workflow has
// terminated (none running).
func (w *World) WorkflowDone(workflowID string) bool {
	return len(w.SV.RunningTasks(workflowID)) == 0
}

// RunUntilWorkflowDone advances until the workflow has had no running
// tasks for a 30-second grace window (so restart gaps — a failed task
// waiting for its RESTART plan, or an alternation handover — do not read
// as completion) or the horizon passes. It returns the instant the
// workflow was first observed idle.
func (w *World) RunUntilWorkflowDone(workflowID string, horizon time.Duration) (sim.Time, error) {
	const poll = time.Second
	const grace = 30 * time.Second
	started := false
	idleSince := sim.Time(-1)
	for w.Sim.Now() < horizon {
		next := w.Sim.Now() + poll
		if err := w.Sim.Run(next); err != nil {
			return 0, err
		}
		if err := w.progress(); err != nil {
			return 0, err
		}
		running := len(w.SV.RunningTasks(workflowID)) > 0
		switch {
		case running:
			started = true
			idleSince = -1
		case started:
			if idleSince < 0 {
				idleSince = w.Sim.Now()
			}
			if w.Sim.Now()-idleSince >= grace {
				return idleSince, nil
			}
		}
		if w.Sim.Pending() == 0 {
			break
		}
	}
	return w.Sim.Now(), nil
}
