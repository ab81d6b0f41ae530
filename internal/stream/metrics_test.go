package stream

import (
	"errors"
	"testing"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// TestStreamMetrics: produced/dropped counters and the backlog gauge track
// staging activity per stream; attaching to a closed stream counts as an
// EOF attach.
func TestStreamMetrics(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	val := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}

	st := r.Open("gs.out")
	rd := st.Attach(2, DropOldest)
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := st.Put(p, Step{Index: i}); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if val("dyflow_stream_produced_total") != 4 || val("dyflow_stream_dropped_total") != 2 {
		t.Fatalf("produced=%v dropped=%v, want 4/2",
			val("dyflow_stream_produced_total"), val("dyflow_stream_dropped_total"))
	}
	if val("dyflow_stream_backlog_records") != 2 {
		t.Fatalf("backlog = %v, want 2", val("dyflow_stream_backlog_records"))
	}
	if _, ok := rd.TryGet(); !ok {
		t.Fatal("TryGet failed on buffered stream")
	}
	if val("dyflow_stream_backlog_records") != 1 {
		t.Fatalf("backlog after get = %v, want 1", val("dyflow_stream_backlog_records"))
	}

	st.Close()
	st.Attach(1, Block)
	if val("dyflow_stream_eof_attaches_total") != 1 {
		t.Fatalf("eof attaches = %v, want 1", val("dyflow_stream_eof_attaches_total"))
	}

	// Streams opened after SetMetrics are instrumented too.
	st2 := r.Open("tau.sim")
	st2.Attach(1, DropOldest)
	s.Spawn("producer2", func(p *sim.Proc) {
		st2.Put(p, Step{Index: 0})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if val("dyflow_stream_produced_total") != 5 {
		t.Fatalf("produced across streams = %v, want 5", val("dyflow_stream_produced_total"))
	}
}

// TestStoppedPutPublishesNothing: a producer blocked on its second reader
// has already staged the record with the first, unpublished. sim.Stop ends
// the Put with ErrStopped and the backlog gauge stays where it was — a
// stopped simulation must read as it did the instant before.
func TestStoppedPutPublishesNothing(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	st := r.Open("gs.out")
	st.Attach(2, Block) // room for both records
	st.Attach(1, Block) // full after the first
	var err error
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 2 && err == nil; i++ {
			err = st.Put(p, Step{Index: i})
		}
	})
	if e := s.RunUntilIdle(); e != nil {
		t.Fatal(e)
	}
	before, _ := reg.Value("dyflow_stream_backlog_records")
	s.Stop()
	if !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("blocked Put returned %v, want ErrStopped", err)
	}
	if after, _ := reg.Value("dyflow_stream_backlog_records"); before != 2 || after != before {
		t.Fatalf("backlog gauge %v before Stop, %v after; want 2 both times", before, after)
	}
}
