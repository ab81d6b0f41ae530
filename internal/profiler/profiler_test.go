package profiler

import (
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
	if rec.Index != 7 || rec.Vars["step"] != 7 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Vars["looptime"] != 12 {
		t.Fatalf("looptime = %v", rec.Vars["looptime"])
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
