// Package task models the workflow tasks DYFLOW orchestrates: simulated
// parallel (MPI-style) programs advancing through timesteps on a set of
// assigned CPU cores.
//
// The model captures exactly the runtime behaviours DYFLOW's evaluation
// depends on:
//
//   - Amdahl scaling: a timestep costs serial + work/procs (optionally
//     modulated per step for data-dependent analyses such as Isosurface);
//   - in situ coupling: a producer stages each step on a bounded stream and
//     blocks when a tightly coupled consumer falls behind, so
//     under-provisioned analyses throttle the simulation (Figures 1, 8, 9);
//   - graceful termination: a SIGTERM-style stop lets the task finish its
//     current timestep before exiting — the cost that dominates DYFLOW's
//     response time (~97%, paper §4.6);
//   - checkpoint/restart: periodic checkpoints in the virtual filesystem,
//     resumed by the next incarnation (Figure 11);
//   - output files, cumulative progress counters, and exit-status files for
//     the DISKSCAN/ERRORSTATUS sensor sources;
//   - TAU-style instrumentation: per-rank loop times published on a
//     monitoring stream each step.
package task

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/db"
	"dyflow/internal/fsim"
	"dyflow/internal/profiler"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
)

// Env bundles the substrate a task runs against.
type Env struct {
	Sim     *sim.Sim
	FS      *fsim.FS
	Streams *stream.Registry
	// DB is the optional in-cluster database service (nil when the
	// deployment has none).
	DB *db.Service
}

// Placement maps node IDs to the number of task processes on that node.
type Placement map[cluster.NodeID]int

// Procs returns the total process count.
func (pl Placement) Procs() int {
	n := 0
	for _, v := range pl {
		n += v
	}
	return n
}

// Nodes returns the node IDs in sorted order.
func (pl Placement) Nodes() []cluster.NodeID {
	ids := make([]cluster.NodeID, 0, len(pl))
	for id := range pl {
		ids = append(ids, id)
	}
	return cluster.SortNodeIDs(ids)
}

// RankNode returns the node hosting the given rank under block placement
// (ranks are assigned to nodes in sorted node order).
func (pl Placement) RankNode(rank int) cluster.NodeID {
	for _, id := range pl.Nodes() {
		if rank < pl[id] {
			return id
		}
		rank -= pl[id]
	}
	return ""
}

// Cost is the per-timestep cost model.
type Cost struct {
	// Serial is the non-parallelizable portion of a timestep.
	Serial time.Duration
	// Work is the parallelizable portion at one process; a step costs
	// Serial + Work/procs before noise and scaling.
	Work time.Duration
	// Noise is the relative uniform noise half-width (0.05 = ±5%).
	Noise float64
	// Scale, if non-nil, multiplies the step cost by Scale(step) — used for
	// data-dependent analyses whose complexity changes with the data.
	Scale func(step int) float64
}

// StepTime computes the duration of one timestep at the given process count.
func (c Cost) StepTime(rng *rand.Rand, procs, step int) time.Duration {
	if procs < 1 {
		procs = 1
	}
	d := float64(c.Serial) + float64(c.Work)/float64(procs)
	if c.Scale != nil {
		d *= c.Scale(step)
	}
	if c.Noise > 0 {
		d *= 1 + c.Noise*(rng.Float64()*2-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Spec declares a task's static behaviour. Launch instantiates it with a
// concrete placement; restarts create new incarnations from (possibly
// updated) specs.
type Spec struct {
	// Name identifies the task within its workflow (e.g. "Isosurface").
	Name string
	// Workflow is the owning workflow ID (e.g. "GS-WORKFLOW").
	Workflow string
	// ThreadsPerProc is informational (Table 1's "threads per process").
	ThreadsPerProc int

	// Cost is the per-timestep cost model.
	Cost Cost
	// TotalSteps is the number of timesteps per incarnation; 0 means run
	// until the consumed stream closes (pure analysis tasks).
	TotalSteps int

	// ConsumesFrom names the staging stream read at the top of each step
	// ("" = none). A task with ConsumesFrom set processes one staged record
	// per timestep and completes when the stream closes.
	ConsumesFrom string
	// ConsumeBuf is this task's staging buffer capacity in steps (>=1).
	ConsumeBuf int
	// ProducesTo names the staging stream written after each step ("").
	ProducesTo string
	// ProduceEvery stages only every Nth step (LAMMPS analyses consume
	// every 10th simulation step); 0 or 1 stages every step.
	ProduceEvery int
	// ProduceSize is the staged payload size in bytes per record.
	ProduceSize int64
	// ProduceVars, if non-nil, computes the staged variables for a step
	// (e.g. XGCa's synthetic error norm).
	ProduceVars func(globalStep int) map[string]float64

	// OutputEvery writes an output file every N completed steps (0 = none).
	OutputEvery int
	// OutputPattern is the fs path pattern for outputs; it receives the
	// global step number (e.g. "out/xgc1.%05d.bp").
	OutputPattern string
	// OutputVars, if non-nil, computes additional output-file variables.
	OutputVars func(globalStep int) map[string]float64

	// CheckpointEvery writes a checkpoint every N completed steps (0 =
	// none); CheckpointKey is the fs path holding the last checkpointed
	// global step.
	CheckpointEvery int
	CheckpointKey   string
	// ResumeFromCheckpoint makes a new incarnation start from the last
	// checkpointed step instead of step 0.
	ResumeFromCheckpoint bool

	// ProgressKey, if set, is an fs path accumulating the workflow-global
	// step count across incarnations (the XGC1/XGCa alternation counter).
	// The incarnation starts at the stored value and advances it as steps
	// complete.
	ProgressKey string

	// StartupDelay models MPI launch plus application init time.
	StartupDelay time.Duration

	// PublishDBKey, when set, publishes each completed step's loop time
	// under this key in the cluster database service (the third source
	// medium of paper §2.1).
	PublishDBKey string

	// Profile enables TAU-style instrumentation: per-rank loop times are
	// published on stream "tau.<Name>" after every step.
	Profile bool
	// ProfileRankSpread is the relative spread of per-rank loop times
	// around the step time (default 0.05).
	ProfileRankSpread float64
}

// ProfileStreamName returns the monitoring stream name used when
// Spec.Profile is set.
func ProfileStreamName(task string) string { return profiler.StreamName(task) }

// StatusPath returns the fs path of the Savanna-style exit-status file.
func StatusPath(workflow, task string) string {
	return fmt.Sprintf("status/%s/%s.exit", workflow, task)
}

// State is an instance's lifecycle state.
type State int

const (
	// Launching covers MPI startup and application init.
	Launching State = iota
	// Running is the main timestep loop.
	Running
	// Draining is the graceful-termination window: a stop was requested
	// and the task is finishing its current timestep.
	Draining
	// Completed means the incarnation finished normally (all steps done or
	// input stream closed) or was stopped deliberately.
	Completed
	// Failed means the incarnation died (node failure / crash); its exit
	// code is > 128.
	Failed
)

var stateNames = [...]string{"Launching", "Running", "Draining", "Completed", "Failed"}

// String returns the state name.
func (st State) String() string {
	if int(st) < len(stateNames) {
		return stateNames[st]
	}
	return fmt.Sprintf("State(%d)", int(st))
}

// Instance is one incarnation of a running task.
type Instance struct {
	Spec        Spec
	Placement   Placement
	Incarnation int

	env   *Env
	proc  *sim.Proc
	state State

	// stop coordination
	stopRequested bool // graceful stop pending
	crashSignaled bool // immediate abort pending
	crashCode     int
	deliberate    bool // the stop came from the WMS, not a failure

	startedAt   sim.Time
	endedAt     sim.Time
	stepsDone   int
	globalStep  int // last completed global step number
	exitCode    int
	consumer    *stream.Reader
	producer    *stream.Stream
	probe       *profiler.Probe
	onStateFunc func(in *Instance, from, to State)
}

// errAbort terminates the step loop immediately (crash path).
var errAbort = errors.New("task: aborted")

// Launch starts a new incarnation of spec on placement. incarnation numbers
// restarts of the same task (0 for the first launch). onState, if non-nil,
// observes lifecycle transitions (used by the trace recorder and the WMS).
func Launch(env *Env, spec Spec, placement Placement, incarnation int, onState func(in *Instance, from, to State)) *Instance {
	in := &Instance{
		Spec:        spec,
		Placement:   placement,
		Incarnation: incarnation,
		env:         env,
		state:       Launching,
		startedAt:   env.Sim.Now(),
		onStateFunc: onState,
	}
	// A fresh incarnation clears the previous exit status so failure
	// sensors do not re-observe a stale code.
	env.FS.Remove(StatusPath(spec.Workflow, spec.Name))
	name := fmt.Sprintf("%s/%s#%d", spec.Workflow, spec.Name, incarnation)
	in.proc = env.Sim.Spawn(name, in.main)
	return in
}

// State returns the current lifecycle state.
func (in *Instance) State() State { return in.state }

// Alive reports whether the incarnation has not yet terminated.
func (in *Instance) Alive() bool { return in.state != Completed && in.state != Failed }

// ExitCode returns the recorded exit code (valid after termination).
func (in *Instance) ExitCode() int { return in.exitCode }

// StepsDone returns the number of completed steps this incarnation.
func (in *Instance) StepsDone() int { return in.stepsDone }

// GlobalStep returns the last completed global step number.
func (in *Instance) GlobalStep() int { return in.globalStep }

// StartedAt and EndedAt bound the incarnation's lifetime.
func (in *Instance) StartedAt() sim.Time { return in.startedAt }

// EndedAt returns the termination time (valid after termination).
func (in *Instance) EndedAt() sim.Time { return in.endedAt }

// Proc exposes the underlying simulated process (for Join).
func (in *Instance) Proc() *sim.Proc { return in.proc }

// Stop requests termination. graceful lets the task finish its current
// timestep first (SIGTERM semantics); otherwise the task aborts at its next
// interruption point (SIGKILL). Deliberate stops record exit code 0 — the
// WMS, not the task, decided to end it.
func (in *Instance) Stop(graceful bool) {
	if !in.Alive() {
		return
	}
	in.deliberate = true
	if graceful {
		in.stopRequested = true
	} else {
		in.crashSignaled = true
		in.crashCode = 0
	}
	in.proc.Interrupt(errors.New("stop requested"))
}

// Crash kills the incarnation as a failure with the given exit code
// (e.g. 137 for a node loss). The task aborts immediately and its status
// file records the code, which is what the ERRORSTATUS sensor reads.
func (in *Instance) Crash(code int) {
	if !in.Alive() {
		return
	}
	in.crashSignaled = true
	in.crashCode = code
	in.proc.Interrupt(fmt.Errorf("crash with code %d", code))
}

func (in *Instance) setState(st State) {
	if in.state == st {
		return
	}
	from := in.state
	in.state = st
	if in.onStateFunc != nil {
		in.onStateFunc(in, from, st)
	}
}

// main is the incarnation's process body: the step loop, then the end of
// the incarnation's life — its streams close (instrumentation first, input
// last) and the terminal state and exit-status file are recorded. When the
// loop was cut short by sim.Stop instead, the incarnation did not end:
// everything stays as it stands.
func (in *Instance) main(p *sim.Proc) {
	in.steps(p)
	if in.env.Sim.Stopped() {
		return
	}
	if in.probe != nil {
		in.probe.Close()
	}
	if in.producer != nil {
		in.producer.Close()
	}
	if in.consumer != nil {
		in.consumer.Close()
	}
	in.finish()
}

// steps attaches the incarnation's streams and runs its timestep loop until
// the work is done, the input ends, or a stop or crash is delivered.
func (in *Instance) steps(p *sim.Proc) {
	// MPI launch + init.
	if in.Spec.StartupDelay > 0 {
		if err := p.SleepUninterruptible(in.Spec.StartupDelay); err != nil {
			if in.crashSignaled || in.stopRequested || sim.Interrupted(err) {
				return
			}
			return
		}
		if in.crashSignaled || in.stopRequested {
			return
		}
	}

	// Cumulative workflow progress (XGC alternation).
	offset := 0
	if in.Spec.ProgressKey != "" {
		if v, err := in.env.FS.ReadVar(in.Spec.ProgressKey, "step"); err == nil {
			offset = int(v)
		}
	}
	// Checkpoint resume.
	startStep := 0
	if in.Spec.ResumeFromCheckpoint && in.Spec.CheckpointKey != "" {
		if v, err := in.env.FS.ReadVar(in.Spec.CheckpointKey, "step"); err == nil {
			startStep = int(v)
		}
	}

	// Stream attachments.
	if in.Spec.ConsumesFrom != "" {
		buf := in.Spec.ConsumeBuf
		if buf <= 0 {
			buf = 1
		}
		st := in.env.Streams.OpenRead(in.Spec.ConsumesFrom)
		in.consumer = st.Attach(buf, stream.Block)
	}
	if in.Spec.ProducesTo != "" {
		in.producer = in.env.Streams.Open(in.Spec.ProducesTo)
	}
	if in.Spec.Profile {
		in.probe = profiler.Attach(in.env.Streams, in.Spec.Name, in.Spec.ProfileRankSpread, in.env.Sim.Rand())
	}

	in.setState(Running)
	rng := in.env.Sim.Rand()
	procs := in.Placement.Procs()

	for step := startStep; in.Spec.TotalSteps <= 0 || step < in.Spec.TotalSteps; step++ {
		if in.crashSignaled || in.stopRequested {
			return
		}
		stepStart := p.Now()

		// 1. Consume the staged input record for this step, if coupled.
		if in.consumer != nil {
			if _, err := in.consumer.Get(p); err != nil {
				if errors.Is(err, stream.ErrDetached) {
					return // producer finished: analysis completes
				}
				if sim.Interrupted(err) {
					return // stop/crash while waiting for data
				}
				return
			}
		}

		// 2. Compute.
		dur := in.Spec.Cost.StepTime(rng, procs, step)
		if err := in.computePhase(p, dur); err != nil {
			return
		}

		// 3. Stage the step's output, blocking on coupled backpressure.
		globalStep := offset + step + 1
		if in.producer != nil && (in.Spec.ProduceEvery <= 1 || (step+1)%in.Spec.ProduceEvery == 0) {
			rec := stream.Step{Index: globalStep, Size: in.Spec.ProduceSize}
			if in.Spec.ProduceVars != nil {
				rec.Vars = in.Spec.ProduceVars(globalStep)
			}
			if err := in.producer.Put(p, rec); err != nil {
				if sim.Interrupted(err) {
					if in.crashSignaled {
						return
					}
					// Graceful stop while blocked staging: the step's
					// compute finished; count it and exit.
					in.noteStep(globalStep, p.Now()-stepStart, p)
					return
				}
				if !errors.Is(err, stream.ErrDetached) {
					return
				}
			}
		}

		in.noteStep(globalStep, p.Now()-stepStart, p)
	}
}

// computePhase runs one step's computation, honoring graceful-termination
// semantics: a graceful stop finishes the step; a crash aborts immediately.
func (in *Instance) computePhase(p *sim.Proc, d time.Duration) error {
	start := p.Now()
	err := p.Sleep(d)
	if err == nil {
		return nil
	}
	if !sim.Interrupted(err) {
		return err // simulation stopped
	}
	if in.crashSignaled {
		return errAbort
	}
	// Graceful: finish the current timestep, then let the loop exit.
	in.setState(Draining)
	remaining := d - (p.Now() - start)
	if err := p.SleepUninterruptible(remaining); err != nil && !sim.Interrupted(err) {
		return err
	}
	if in.crashSignaled {
		return errAbort
	}
	in.stopRequested = true
	return nil
}

// noteStep records a completed step: progress counters, instrumentation,
// output files, and checkpoints.
func (in *Instance) noteStep(globalStep int, loopTime time.Duration, p *sim.Proc) {
	in.stepsDone++
	in.globalStep = globalStep

	if in.Spec.ProgressKey != "" {
		in.env.FS.WriteVar(in.Spec.ProgressKey, "step", float64(globalStep))
	}
	if in.probe != nil {
		in.probe.EmitStep(p, globalStep, in.Placement.Procs(), loopTime)
	}
	if in.Spec.PublishDBKey != "" && in.env.DB != nil {
		in.env.DB.Put(in.Spec.PublishDBKey, globalStep, loopTime.Seconds())
	}
	if in.Spec.OutputEvery > 0 && in.stepsDone%in.Spec.OutputEvery == 0 && in.Spec.OutputPattern != "" {
		path := fmt.Sprintf(in.Spec.OutputPattern, globalStep)
		vars := map[string]float64{"step": float64(globalStep)}
		if in.Spec.OutputVars != nil {
			for k, v := range in.Spec.OutputVars(globalStep) {
				vars[k] = v
			}
		}
		in.env.FS.Write(path, in.Spec.ProduceSize, vars)
	}
	if in.Spec.CheckpointEvery > 0 && in.Spec.CheckpointKey != "" && in.stepsDone%in.Spec.CheckpointEvery == 0 {
		in.env.FS.WriteVar(in.Spec.CheckpointKey, "step", float64(globalStep))
	}
}

// finish records the terminal state and exit-status file.
func (in *Instance) finish() {
	in.endedAt = in.env.Sim.Now()
	switch {
	case in.crashSignaled && !in.deliberate:
		in.exitCode = in.crashCode
		in.setState(Failed)
	default:
		in.exitCode = 0
		in.setState(Completed)
	}
	in.env.FS.Write(StatusPath(in.Spec.Workflow, in.Spec.Name), 0, map[string]float64{
		"exitcode":    float64(in.exitCode),
		"incarnation": float64(in.Incarnation),
	})
}
