// Package profiler models TAU-style application instrumentation: each
// completed timestep of an instrumented task publishes a record with one
// loop time per MPI rank onto a monitoring stream, which DYFLOW's
// TAUADIOS2 sensor source consumes in real time. The record holds the
// ranks only: the task-level loop time is the step's wall time, set by
// its slowest rank, so it is their MAX. The rank array is leased from the
// stream (stream.Stream.Lease), so a step a sensor reads and releases
// allocates nothing once the stream's free list holds a buffer.
//
// A step nobody reads costs nothing: when no sensor is attached to the
// stream, the probe builds no record and puts a bare Step{Index}, which
// the stream still counts as produced. It still draws the rank spread,
// one value per rank and one slowest rank, because the probe shares the
// world's generator with every task's step loop: a skipped draw would
// move every later step of every task.
package profiler

import (
	"math/rand"
	"time"

	"dyflow/internal/sim"
	"dyflow/internal/stream"
)

// StreamName returns the monitoring stream name for a task ("tau.<task>").
func StreamName(taskName string) string { return "tau." + taskName }

// rankSpread is the relative dispersion of per-rank loop times below the
// slowest rank.
const rankSpread = 0.05

// Probe publishes per-timestep instrumentation for one task incarnation.
type Probe struct {
	st  *stream.Stream
	rng *rand.Rand
}

// Attach opens (or reopens) the task's monitoring stream.
func Attach(reg *stream.Registry, taskName string, rng *rand.Rand) *Probe {
	return &Probe{st: reg.Open(StreamName(taskName)), rng: rng}
}

// EmitStep publishes one timestep record: Array carries per-rank loop
// times, each within rankSpread below the loop time (the wall time of the
// step, set by its slowest rank), and the slowest rank's is the loop time
// itself, so MAX reductions recover it exactly. With no reader attached
// the step is counted but not built; its draws are made all the same (see
// the package doc).
func (pr *Probe) EmitStep(p *sim.Proc, globalStep, procs int, loopTime time.Duration) {
	if !pr.st.HasReaders() {
		for i := 0; i < procs; i++ {
			pr.rng.Float64()
		}
		if procs > 0 {
			pr.rng.Intn(procs)
		}
		pr.st.Put(p, stream.Step{Index: globalStep})
		return
	}
	base := loopTime.Seconds()
	rec := pr.st.Lease(procs)
	ranks := rec.Array
	for i := range ranks {
		ranks[i] = base * (1 - rankSpread*pr.rng.Float64())
	}
	if procs > 0 {
		ranks[pr.rng.Intn(procs)] = base
	}
	rec.Index = globalStep
	pr.st.Put(p, rec)
}

// Close ends the incarnation's instrumentation stream.
func (pr *Probe) Close() { pr.st.Close() }
