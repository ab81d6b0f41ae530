package task

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dyflow/internal/db"
	"dyflow/internal/fsim"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
)

func newEnv(seed int64) *Env {
	s := sim.New(seed)
	return &Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, obs.NewRegistry())}
}

func TestCostAmdahlScaling(t *testing.T) {
	c := Cost{Serial: 2 * time.Second, Work: 80 * time.Second}
	s := sim.New(1)
	if got := c.StepTime(s.Rand(), 1, 0); got != 82*time.Second {
		t.Fatalf("1 proc = %v, want 82s", got)
	}
	if got := c.StepTime(s.Rand(), 20, 0); got != 6*time.Second {
		t.Fatalf("20 procs = %v, want 6s", got)
	}
	if got := c.StepTime(s.Rand(), 40, 0); got != 4*time.Second {
		t.Fatalf("40 procs = %v, want 4s", got)
	}
}

func TestCostScaleAndFloor(t *testing.T) {
	c := Cost{Work: 10 * time.Second, Scale: func(step int) float64 { return float64(step) }}
	s := sim.New(1)
	if got := c.StepTime(s.Rand(), 1, 0); got != 0 {
		t.Fatalf("scale 0 => %v, want 0", got)
	}
	if got := c.StepTime(s.Rand(), 1, 3); got != 30*time.Second {
		t.Fatalf("scale 3 => %v, want 30s", got)
	}
	if got := c.StepTime(s.Rand(), 0, 1); got != 10*time.Second {
		t.Fatalf("0 procs clamps to 1, got %v", got)
	}
}

func TestPlacementRankNode(t *testing.T) {
	pl := Placement{"node001": 2, "node000": 3}
	if pl.Procs() != 5 {
		t.Fatalf("procs = %d", pl.Procs())
	}
	// Block placement in sorted node order: ranks 0-2 on node000, 3-4 on node001.
	wants := []string{"node000", "node000", "node000", "node001", "node001"}
	for r, want := range wants {
		if got := string(pl.RankNode(r)); got != want {
			t.Fatalf("rank %d on %s, want %s", r, got, want)
		}
	}
	if pl.RankNode(5) != "" {
		t.Fatal("out-of-range rank should map to empty node")
	}
}

// endOf returns where the instant in's incarnation ends will be: a
// process joins it and notes the instant, as Savanna's watcher does before
// it emits TaskEnded. It stays -1 until then.
func endOf(env *Env, in *Instance) *sim.Time {
	end := sim.Time(-1)
	env.Sim.Spawn("end-of/"+in.Spec.Name, func(p *sim.Proc) {
		if p.Join(in.Proc()) == nil {
			end = p.Now()
		}
	})
	return &end
}

func TestInstanceRunsToCompletion(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name:     "Sim",
		Workflow: "WF",
		Cost:     Cost{Work: 10 * time.Second},
		// 10 procs -> 1s/step
		TotalSteps:   5,
		StartupDelay: 2 * time.Second,
	}
	in := Launch(env, spec, Placement{"node000": 10}, 0)
	ended := endOf(env, in)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in.State() != Completed || in.ExitCode() != 0 {
		t.Fatalf("state = %v code = %d", in.State(), in.ExitCode())
	}
	if in.StepsDone() != 5 {
		t.Fatalf("steps = %d, want 5", in.StepsDone())
	}
	if got := *ended; got != 7*time.Second {
		t.Fatalf("ended at %v, want 7s (2s startup + 5x1s)", got)
	}
	// Exit status file written with code 0.
	if v, err := env.FS.ReadVar(StatusPath("WF", "Sim"), "exitcode"); err != nil || v != 0 {
		t.Fatalf("status = %v, %v", v, err)
	}
}

func TestGracefulStopFinishesCurrentStep(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "Sim", Workflow: "WF",
		Cost:       Cost{Work: 10 * time.Second}, // 1 proc -> 10s/step
		TotalSteps: 100,
	}
	in := Launch(env, spec, Placement{"node000": 1}, 0)
	ended := endOf(env, in)
	// SIGTERM mid-step 3 (t=25s): the task must finish step 3 (t=30s).
	env.Sim.At(25*time.Second, func() { in.Stop(true) })
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in.State() != Completed {
		t.Fatalf("state = %v, want Completed (deliberate stop)", in.State())
	}
	if in.StepsDone() != 3 {
		t.Fatalf("steps = %d, want 3", in.StepsDone())
	}
	if *ended != 30*time.Second {
		t.Fatalf("ended at %v, want 30s (graceful drain)", *ended)
	}
	if in.ExitCode() != 0 {
		t.Fatalf("deliberate stop exit code = %d, want 0", in.ExitCode())
	}
}

func TestCrashAbortsImmediately(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "Sim", Workflow: "WF",
		Cost:       Cost{Work: 10 * time.Second},
		TotalSteps: 100,
	}
	in := Launch(env, spec, Placement{"node000": 1}, 0)
	ended := endOf(env, in)
	env.Sim.At(25*time.Second, func() { in.Crash(137) })
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in.State() != Failed {
		t.Fatalf("state = %v, want Failed", in.State())
	}
	if *ended != 25*time.Second {
		t.Fatalf("ended at %v, want 25s (immediate abort)", *ended)
	}
	if v, _ := env.FS.ReadVar(StatusPath("WF", "Sim"), "exitcode"); v != 137 {
		t.Fatalf("status exitcode = %v, want 137", v)
	}
}

func TestCouplingBackpressureThrottlesProducer(t *testing.T) {
	env := newEnv(1)
	producer := Spec{
		Name: "GrayScott", Workflow: "GS",
		Cost:       Cost{Work: 10 * time.Second}, // 10 procs -> 1s/step
		TotalSteps: 10,
		ProducesTo: "gs.out",
	}
	consumer := Spec{
		Name: "Isosurface", Workflow: "GS",
		Cost:         Cost{Work: 50 * time.Second}, // 10 procs -> 5s/step
		ConsumesFrom: "gs.out",
		ConsumeBuf:   1,
	}
	p := Launch(env, producer, Placement{"node000": 10}, 0)
	c := Launch(env, consumer, Placement{"node001": 10}, 0)
	pEnded, cEnded := endOf(env, p), endOf(env, c)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if p.State() != Completed || c.State() != Completed {
		t.Fatalf("states = %v, %v", p.State(), c.State())
	}
	if c.StepsDone() != 10 {
		t.Fatalf("consumer steps = %d, want all 10", c.StepsDone())
	}
	// The producer is gated by the 5s consumer: standalone it would finish
	// in 10s, but the 1-deep buffer limits it to roughly one step per
	// consumer step (last put completes when the consumer takes step 8 at
	// t=41s).
	if *pEnded != 41*time.Second {
		t.Fatalf("producer ended at %v; backpressure should throttle it to 41s", *pEnded)
	}
	// Consumer completes when the producer's stream closes and drains.
	if *cEnded < *pEnded {
		t.Fatal("consumer cannot finish before producer closes the stream")
	}
}

func TestProgressAccumulatesAcrossIncarnations(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "XGC1", Workflow: "FUSION",
		Cost:        Cost{Work: time.Second},
		TotalSteps:  100,
		ProgressKey: "progress/fusion",
	}
	in0 := Launch(env, spec, Placement{"node000": 1}, 0)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in0.GlobalStep() != 100 {
		t.Fatalf("first incarnation global step = %d, want 100", in0.GlobalStep())
	}
	in1 := Launch(env, spec, Placement{"node000": 1}, 1)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in1.GlobalStep() != 200 {
		t.Fatalf("second incarnation global step = %d, want 200", in1.GlobalStep())
	}
	if v, _ := env.FS.ReadVar("progress/fusion", "step"); v != 200 {
		t.Fatalf("progress var = %v, want 200", v)
	}
}

func TestCheckpointResume(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "LAMMPS", Workflow: "MD",
		Cost:                 Cost{Work: time.Second},
		TotalSteps:           1000,
		CheckpointEvery:      4,
		CheckpointKey:        "ckpt/lammps",
		ResumeFromCheckpoint: true,
	}
	in := Launch(env, spec, Placement{"node000": 1}, 0)
	env.Sim.At(450*time.Second, func() { in.Crash(137) })
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	ck, err := env.FS.ReadVar("ckpt/lammps", "step")
	if err != nil {
		t.Fatal(err)
	}
	if ck != 448 {
		t.Fatalf("checkpoint = %v, want 448 (last multiple of 4 before crash)", ck)
	}
	// Restart resumes from the checkpointed step, repeating the lost ones.
	in2 := Launch(env, spec, Placement{"node000": 1}, 1)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if in2.State() != Completed {
		t.Fatalf("state = %v", in2.State())
	}
	if got := in2.StepsDone(); got != 1000-448 {
		t.Fatalf("resumed steps = %d, want %d", got, 1000-448)
	}
}

func TestOutputFilesForDiskScan(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "XGC1", Workflow: "FUSION",
		Cost:          Cost{Work: time.Second},
		TotalSteps:    10,
		OutputEvery:   2,
		OutputPattern: "out/xgc1.%05d.bp",
	}
	Launch(env, spec, Placement{"node000": 1}, 0)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	files := env.FS.Glob("out/xgc1.*.bp")
	if len(files) != 5 {
		t.Fatalf("outputs = %d, want 5", len(files))
	}
	if v, _ := env.FS.ReadVar("out/xgc1.00010.bp", "step"); v != 10 {
		t.Fatalf("last output step = %v, want 10", v)
	}
}

func TestProfileStreamCarriesPerRankLoopTimes(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "Isosurface", Workflow: "GS",
		Cost:       Cost{Work: 40 * time.Second}, // 4 procs -> 10s/step
		TotalSteps: 3,
		Profile:    true,
	}
	tau := env.Streams.Open(ProfileStreamName("Isosurface"))
	r := tau.Attach(16, stream.DropOldest)
	Launch(env, spec, Placement{"node000": 2, "node001": 2}, 0)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	steps := r.Buffered()
	if len(steps) != 3 {
		t.Fatalf("profile records = %d, want 3", len(steps))
	}
	rec := steps[0]
	if len(rec.Array) != 4 {
		t.Fatalf("rank array = %d entries, want 4", len(rec.Array))
	}
	max := 0.0
	for _, v := range rec.Array {
		if v > max {
			max = v
		}
	}
	if max != 10 {
		t.Fatalf("max rank %v s != looptime 10 s", max)
	}
}

func TestConsumerCompletesWhenProducerStops(t *testing.T) {
	env := newEnv(1)
	producer := Spec{
		Name: "Sim", Workflow: "WF",
		Cost: Cost{Work: time.Second}, TotalSteps: 100,
		ProducesTo: "wf.out",
	}
	consumer := Spec{
		Name: "Ana", Workflow: "WF",
		Cost: Cost{Work: 500 * time.Millisecond}, ConsumesFrom: "wf.out", ConsumeBuf: 2,
	}
	p := Launch(env, producer, Placement{"n": 1}, 0)
	c := Launch(env, consumer, Placement{"n": 1}, 0)
	env.Sim.At(10500*time.Millisecond, func() { p.Stop(true) })
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if c.State() != Completed {
		t.Fatalf("consumer state = %v", c.State())
	}
	if c.StepsDone() == 0 || c.StepsDone() > p.StepsDone() {
		t.Fatalf("consumer steps %d vs producer %d", c.StepsDone(), p.StepsDone())
	}
}

func TestStateTransitionsObserved(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "T", Workflow: "WF",
		Cost: Cost{Work: 10 * time.Second}, TotalSteps: 5,
	}
	in := Launch(env, spec, Placement{"n": 1}, 0)
	states := []string{in.State().String()}
	sample := func() {
		if st := in.State().String(); st != states[len(states)-1] {
			states = append(states, st)
		}
	}
	for at := time.Second; at <= 30*time.Second; at += time.Second {
		env.Sim.At(at, sample)
	}
	env.Sim.At(15*time.Second, func() { in.Stop(true) })
	env.Sim.At(15*time.Second, sample)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"Launching", "Running", "Draining", "Completed"}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
}

func TestProduceStride(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "XGCA", Workflow: "F",
		Cost:         Cost{Work: time.Second},
		TotalSteps:   20,
		ProducesTo:   "f.out",
		ProduceEvery: 5,
	}
	st := env.Streams.Open("f.out")
	r := st.Attach(16, stream.DropOldest)
	Launch(env, spec, Placement{"n": 1}, 0)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	var idx []int
	for _, rec := range r.Buffered() {
		idx = append(idx, rec.Index)
	}
	want := []int{5, 10, 15, 20}
	if len(idx) != len(want) {
		t.Fatalf("staged steps = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("staged steps = %v, want %v", idx, want)
		}
	}
}

func TestOutputVarsMergeIntoFiles(t *testing.T) {
	env := newEnv(1)
	spec := Spec{
		Name: "T", Workflow: "W",
		Cost:          Cost{Work: time.Second},
		TotalSteps:    4,
		OutputEvery:   2,
		OutputPattern: "out/t.%03d",
		OutputVars: func(dst []fsim.Var, g int) []fsim.Var {
			return append(dst, fsim.Var{Name: "extra", Value: float64(g * 10)})
		},
	}
	Launch(env, spec, Placement{"n": 2}, 0)
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if v, err := env.FS.ReadVar("out/t.002", "extra"); err != nil || v != 20 {
		t.Fatalf("extra = %v, %v", v, err)
	}
	if v, _ := env.FS.ReadVar("out/t.004", "step"); v != 4 {
		t.Fatalf("step = %v", v)
	}
}

// TestOutputWriteAllocations: an output step allocates its path string,
// the File and one array for its variables — building the path from the
// pattern split at launch costs nothing beyond the string, and a hook that
// appends its variables to the buffer it is handed costs nothing once the
// instance's buffer has grown.
func TestOutputWriteAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, extra := range [][]fsim.Var{nil, {{Name: "errnorm", Value: 0.5}}} {
		spec := Spec{Name: "T", Workflow: "W", OutputEvery: 1, OutputPattern: "out/t.%05d"}
		if extra != nil {
			spec.OutputVars = func(dst []fsim.Var, _ int) []fsim.Var { return append(dst, extra...) }
		}
		out, err := parseOutputPattern(spec.OutputPattern)
		if err != nil {
			t.Fatal(err)
		}
		in := &Instance{env: newEnv(1), Spec: spec, out: out}
		g := 1000
		// The index's amortized growth is under one allocation per
		// thousand creations, which AllocsPerRun's average rounds away.
		step := testing.AllocsPerRun(1000, func() {
			in.noteStep(g, 0, nil)
			g++
		})
		if step != 3 {
			t.Errorf("%d hook vars: an output step allocates %v times, want 3 (path, File, vars)", len(extra), step)
		}
		f := in.env.FS.Lookup(fmt.Sprintf(spec.OutputPattern, g-1))
		if want := 1 + len(extra); len(f.Vars) != want || cap(f.Vars) != want {
			t.Errorf("%d hook vars: file vars %v (cap %d), want exactly %d", len(extra), f.Vars, cap(f.Vars), want)
		}
	}
}

func TestCostNoiseBounded(t *testing.T) {
	c := Cost{Work: 100 * time.Second, Noise: 0.1}
	s := sim.New(1)
	for i := 0; i < 200; i++ {
		d := c.StepTime(s.Rand(), 10, i)
		if d < 9*time.Second || d > 11*time.Second {
			t.Fatalf("noisy step %v outside ±10%% of 10s", d)
		}
	}
}

func TestPublishDBKey(t *testing.T) {
	env := newEnv(1)
	env.DB = db.New(env.Sim)
	spec := Spec{
		Name: "Sim", Workflow: "W",
		Cost:         Cost{Work: 10 * time.Second}, // 10 procs -> 1s/step
		TotalSteps:   5,
		PublishDBKey: "pace/sim",
	}
	Launch(env, spec, Placement{"n": 10}, 0)
	// Poll the latest record every 100 ms through the run: each 1 s step
	// shows up once.
	var seen []int
	var poll func()
	poll = func() {
		if rec, ok := env.DB.Latest("pace/sim"); ok && (len(seen) == 0 || seen[len(seen)-1] != rec.Step) {
			seen = append(seen, rec.Step)
		}
		if env.Sim.Now() < time.Minute {
			env.Sim.After(100*time.Millisecond, poll)
		}
	}
	poll()
	if err := env.Sim.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4, 5}; !slices.Equal(seen, want) {
		t.Fatalf("published steps = %v, want one per step %v", seen, want)
	}
	rec, ok := env.DB.Latest("pace/sim")
	if !ok || rec.Step != 5 {
		t.Fatalf("latest = %+v, %v", rec, ok)
	}
	if rec.Value != 1.0 {
		t.Fatalf("published loop time = %v s, want 1", rec.Value)
	}
}
