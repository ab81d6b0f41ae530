package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core/sensor"
	"dyflow/internal/sim"
)

// errHalt is what the tests' OnProgress hooks return to cut a run short.
var errHalt = errors.New("halt the run here")

// haltAt makes the world's driver loop give up with errHalt at the first
// progress report at or after the instant.
func haltAt(w *World, at time.Duration) {
	w.OnProgress = func(now sim.Time) error {
		if now >= at {
			return errHalt
		}
		return nil
	}
}

// goroutinesSettleTo waits for the goroutine count to come back down to
// want: a process goroutine the kernel has been told about as finished may
// still be on its way out.
func goroutinesSettleTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d back:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunJobReleasesWorld: whichever way RunJob returns, the world it built
// is garbage — its finalizer runs — and every simulation goroutine is gone.
func TestRunJobReleasesWorld(t *testing.T) {
	modes := []struct {
		name      string
		configure func(*World) error
		want      error
	}{
		{"completes", func(*World) error { return nil }, nil},
		{"cancelled", func(w *World) error { haltAt(w, 3*time.Minute); return nil }, errHalt},
		{"configure-error", func(*World) error { return errHalt }, errHalt},
	}
	for _, scenario := range Scenarios() {
		for _, mode := range modes {
			scenario, mode := scenario, mode
			t.Run(scenario+"/"+mode.name, func(t *testing.T) {
				if testing.Short() && mode.name == "completes" && scenario != ScenarioQuickstart {
					t.Skip("full runs of the larger worlds")
				}
				before := runtime.NumGoroutine()
				freed := make(chan struct{})
				_, err := RunJob(Job{Scenario: scenario, Seed: 5}, func(w *World) error {
					runtime.SetFinalizer(w, func(*World) { close(freed) })
					return mode.configure(w)
				})
				if !errors.Is(err, mode.want) {
					t.Fatalf("RunJob error = %v, want %v", err, mode.want)
				}
				goroutinesSettleTo(t, before)
				deadline := time.After(10 * time.Second)
				for {
					runtime.GC()
					select {
					case <-freed:
						return
					case <-deadline:
						t.Fatal("the world is still reachable after RunJob returned")
					case <-time.After(time.Millisecond):
					}
				}
			})
		}
	}
}

// closeAt builds the scenario's world with the scenario table's runner and
// runs it with one extra event in the schedule: at exactly the given
// instant — wherever that falls, between two events of a plan as readily
// as on a driver-loop boundary — the world is observed, closed, observed
// again, closed again and observed a third time, and the driver loop is
// told to give up. A run that ends before the instant gets the same after
// it returns. The three observations must be one, and Close must come back.
func closeAt(t *testing.T, scenario string, seed int64, at time.Duration) {
	t.Helper()
	var (
		w      *World
		closed bool
	)
	closeNow := func() {
		before := observe(t, w)
		done := make(chan struct{})
		go func() { w.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s seed %d @%v: Close has not returned: a process is ignoring ErrStopped", scenario, seed, at)
		}
		closed = true
		if after := observe(t, w); after != before {
			t.Fatalf("%s seed %d @%v: Close changed the world, %s", scenario, seed, at, firstDifference(before, after))
		}
		w.Close()
		if again := observe(t, w); again != before {
			t.Fatalf("%s seed %d @%v: the second Close changed the world, %s", scenario, seed, at, firstDifference(before, again))
		}
	}
	configure := func(built *World) error {
		w = built
		w.Rec.Keep(everySeries) // so observe fingerprints the point store
		w.Sim.At(at, closeNow)
		w.OnProgress = func(sim.Time) error {
			if closed {
				return errHalt
			}
			return nil
		}
		return nil
	}
	_, _, err := lookup(scenario).run(seed, apps.Summit, Variant{Configure: configure})
	if err != nil && !errors.Is(err, errHalt) {
		t.Fatalf("%s seed %d: %v", scenario, seed, err)
	}
	if !closed {
		closeNow()
	}
}

// observe renders everything about a world that a reader, a checkpoint or
// an artifact could see, one item a line.
func observe(t *testing.T, w *World) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "now %v dispatched %d handoffs %d\n", w.Sim.Now(), w.Sim.Dispatched(), w.Sim.Handoffs())

	arts, err := jobArtifacts(w, &Report{ID: "observe"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ArtifactGantt, ArtifactPerfetto, ArtifactMetrics} {
		for _, line := range strings.Split(string(arts[name]), "\n") {
			fmt.Fprintf(&b, "%s: %s\n", name, line)
		}
	}

	fmt.Fprintf(&b, "free cores %d\n", w.RM.Free().Total())
	for _, owner := range w.RM.Owners() {
		fmt.Fprintf(&b, "assigned %s %v\n", owner, w.RM.Assigned(owner))
	}
	for _, f := range w.Env.FS.Glob("**") {
		vars, _ := json.Marshal(f.Vars)
		fmt.Fprintf(&b, "file %s size %d mtime %v %s\n", f.Path, f.Size, f.MTime, vars)
	}
	for _, name := range w.Env.Streams.Names() {
		st := w.Env.Streams.Lookup(name)
		fmt.Fprintf(&b, "%v closed %v\n", st, st.Closed())
	}
	for _, k := range w.Rec.Tasks() {
		in := w.SV.Instance(k[0], k[1])
		fmt.Fprintf(&b, "task %s/%s#%d %v steps %d global %d exit %d ended %v\n", k[0], k[1],
			in.Incarnation, in.State(), in.StepsDone(), in.GlobalStep(), in.ExitCode(), in.EndedAt())
	}

	for _, iv := range w.Rec.Intervals {
		fmt.Fprintf(&b, "interval %+v\n", iv)
	}
	for _, p := range w.Plans() {
		fmt.Fprintf(&b, "plan %+v\n", p)
	}
	keys := map[sensor.Key]string{}
	w.Rec.EachMetric(func(m MetricPoint) {
		k, ok := keys[m.Key]
		if !ok {
			k = m.Key.String()
			keys[m.Key] = k
		}
		fmt.Fprintf(&b, "point %s %d %g %d\n", k, m.At, m.Value, m.Step)
	})

	if w.Orch != nil {
		for _, ep := range w.Orch.Bus.Snapshot().Endpoints {
			fmt.Fprintf(&b, "endpoint %s seq %d queued %d\n", ep.Name, ep.Seq, len(ep.Queue))
		}
		// The checkpoint form covers what the stages hold privately:
		// Decision's windows, T_waiting, sensor worker cursors and reader
		// backlogs, flight-recorder counters and open spans.
		snap, err := json.Marshal(w.Orch.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "orchestrator %s\n", snap)
		for _, op := range w.Orch.Executor.Records() {
			fmt.Fprintf(&b, "op %+v\n", op)
		}
	}
	return b.String()
}

// firstDifference names the first line two observations disagree on.
func firstDifference(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  before: %.300s\n  after:  %.300s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines before, %d after", len(la), len(lb))
}

// TestProperty_WorldClose_IsInert: stop any scenario at any instant — mid
// step, mid plan, mid start script, mid retry backoff, tasks blocked on full
// staging buffers — and closing the world changes nothing that can be read
// from it; closing it twice changes nothing either; and Close returns,
// which it would not if some process answered ErrStopped by blocking again
// in a loop.
func TestProperty_WorldClose_IsInert(t *testing.T) {
	type stop struct {
		seed int64
		at   time.Duration
	}
	plans, drawn := 3, 4
	if testing.Short() {
		plans, drawn = 1, 1
	}
	rng := rand.New(rand.NewSource(0xC105E))
	for _, scenario := range Scenarios() {
		// A full run first, for its length, its plan windows and its
		// retried operations — read off the world RunJob has closed.
		var ran *World
		full, err := RunJob(Job{Scenario: scenario, Seed: 1}, func(w *World) error { ran = w; return nil })
		if err != nil {
			t.Fatal(err)
		}
		// 1 s is inside the launch (xgc's driver is running XGC1's start
		// script); 200 s is where the defect was first measured. Then the
		// places the arbiter waits: each plan's window near its start (plan
		// cost, start scripts), middle and end (tasks draining), and the
		// backoff after an operation's first failed attempt. The rest are
		// drawn over the whole run and a little past its end, so a finished
		// world is among them, on alternating seeds.
		stops := []stop{{1, time.Second}, {1, 200 * time.Second}}
		for i, p := range ran.Plans() {
			if i < plans {
				span := p.ExecutedAt - p.ReceivedAt
				stops = append(stops, stop{1, p.PlannedAt + time.Second}, stop{1, p.ReceivedAt + span/2}, stop{1, p.ReceivedAt + span*9/10})
			}
		}
		retried := 0
		for _, op := range ran.Orch.Executor.Records() {
			if op.Attempts > 1 && retried < 2 {
				retried++
				stops = append(stops, stop{1, op.StartedAt + time.Second})
			}
		}
		for i := 0; i < drawn; i++ {
			stops = append(stops, stop{int64(1 + i%2), time.Duration(rng.Int63n(int64(full.SimEnd) * 11 / 10))})
		}
		for _, st := range stops {
			goroutines := runtime.NumGoroutine()
			closeAt(t, scenario, st.seed, st.at)
			goroutinesSettleTo(t, goroutines)
		}
	}
}
