package profiler

import (
	"math/rand"
	"testing"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
)

func TestEmitStepShape(t *testing.T) {
	s := sim.New(1)
	reg := stream.NewRegistry(s, obs.NewRegistry())
	r := reg.Open(StreamName("Iso")).Attach(8, stream.DropOldest)

	s.Spawn("task", func(p *sim.Proc) {
		pr := Attach(reg, "Iso", s.Rand())
		pr.EmitStep(p, 7, 5, 12*time.Second)
		pr.Close()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	recs := r.Buffered()
	if len(recs) == 0 {
		t.Fatal("no record")
	}
	rec := recs[0]
	if rec.Index != 7 {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Array) != 5 {
		t.Fatalf("ranks = %d", len(rec.Array))
	}
	max := 0.0
	for _, v := range rec.Array {
		if v > max {
			max = v
		}
		if v > 12 || v < 12*(1-0.05)-1e-9 {
			t.Fatalf("rank value %v outside spread", v)
		}
	}
	if max != 12 {
		t.Fatalf("max rank %v != looptime", max)
	}
}

func TestStreamNameConvention(t *testing.T) {
	if StreamName("LAMMPS") != "tau.LAMMPS" {
		t.Fatal(StreamName("LAMMPS"))
	}
}

func TestReattachAfterClose(t *testing.T) {
	s := sim.New(1)
	reg := stream.NewRegistry(s, obs.NewRegistry())
	s.Spawn("incarnations", func(p *sim.Proc) {
		pr := Attach(reg, "T", s.Rand())
		pr.EmitStep(p, 1, 2, time.Second)
		pr.Close()
		pr2 := Attach(reg, "T", s.Rand())
		if pr2.st.Closed() {
			t.Error("reattach should reopen the stream")
		}
		pr2.EmitStep(p, 2, 2, time.Second)
		pr2.Close()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestEmitStepDrawParity: a probe draws from the world's shared generator
// the same values whether or not a reader is attached to its stream, so
// attaching a sensor (or not) moves no other task's step times. Both
// streams count every step.
func TestEmitStepDrawParity(t *testing.T) {
	s := sim.New(1)
	reg := stream.NewRegistry(s, obs.NewRegistry())
	reg.Open(StreamName("read")).Attach(4, stream.DropOldest)
	readRng, unreadRng := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	read := Attach(reg, "read", readRng)
	unread := Attach(reg, "unread", unreadRng)
	s.Spawn("task", func(p *sim.Proc) {
		for i, procs := range []int{0, 1, 5, 64, 3, 0, 128} {
			d := time.Duration(i+1) * time.Second
			read.EmitStep(p, i+1, procs, d)
			unread.EmitStep(p, i+1, procs, d)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a, b := readRng.Int63(), unreadRng.Int63(); a != b {
			t.Fatalf("draw %d after the steps: %d with a reader, %d without", i, a, b)
		}
	}
	if got := read.st.String(); got != "stream(tau.read, 1 readers, 7 produced)" {
		t.Errorf("read stream = %s", got)
	}
	if got := unread.st.String(); got != "stream(tau.unread, 0 readers, 7 produced)" {
		t.Errorf("unread stream = %s", got)
	}
}

// TestEmitStepUnreadAllocatesNothing: a step with no reader attached
// builds no record, so it allocates nothing.
func TestEmitStepUnreadAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := sim.New(1)
	pr := Attach(stream.NewRegistry(s, obs.NewRegistry()), "T", s.Rand())
	step := 0
	if n := testing.AllocsPerRun(100, func() {
		step++
		pr.EmitStep(nil, step, 64, time.Second)
	}); n != 0 {
		t.Fatalf("an unread EmitStep allocates %v times, want 0", n)
	}
}

// TestEmitStepReadAllocatesNothing: a read step leases its rank array, and
// the reader's release sends it home, so once the stream's free list holds
// a buffer a step that is emitted, read and released allocates nothing.
func TestEmitStepReadAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := sim.New(1)
	reg := stream.NewRegistry(s, obs.NewRegistry())
	r := reg.Open(StreamName("T")).Attach(4, stream.DropOldest)
	pr := Attach(reg, "T", s.Rand())
	step := 0
	if n := testing.AllocsPerRun(100, func() {
		step++
		pr.EmitStep(nil, step, 64, time.Second)
		rec, err := r.Get(nil)
		if err != nil || len(rec.Array) != 64 {
			t.Fatalf("Get: %d values, %v", len(rec.Array), err)
		}
		rec.Release()
	}); n != 0 {
		t.Fatalf("a read EmitStep allocates %v times, want 0", n)
	}
}
