package stream

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

func TestFanOutDeliversAll(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	r1 := st.Attach(10, Block)
	r2 := st.Attach(10, Block)

	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := st.Put(p, Step{Index: i}); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		st.Close()
	})
	var got1, got2 []int
	consume := func(r *Reader, out *[]int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for {
				step, err := r.Get(p)
				if err != nil {
					if !errors.Is(err, ErrDetached) {
						t.Errorf("Get: %v", err)
					}
					return
				}
				*out = append(*out, step.Index)
			}
		}
	}
	s.Spawn("c1", consume(r1, &got1))
	s.Spawn("c2", consume(r2, &got2))
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]int{got1, got2} {
		if len(got) != 5 {
			t.Fatalf("got %v, want 0..4", got)
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("out of order: %v", got)
			}
		}
	}
}

func TestBlockBackpressureThrottlesProducer(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	r := st.Attach(2, Block)

	var putDone []sim.Time
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := st.Put(p, Step{Index: i}); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			putDone = append(putDone, p.Now())
		}
	})
	// Consumer takes 30s per step.
	s.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := r.Get(p); err != nil {
				return
			}
			p.Sleep(30 * time.Second)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Steps 0,1 stage immediately; step 2 waits for the consumer's first
	// Get (t=0, it gets step 0 immediately)... buffer: put0,put1 fill;
	// consumer takes 0 at t=0 -> put2 at t=0; put3 blocks until consumer
	// takes 1 at t=30.
	want := []sim.Time{0, 0, 0, 30 * time.Second}
	if len(putDone) != len(want) {
		t.Fatalf("putDone = %v", putDone)
	}
	for i := range want {
		if putDone[i] != want[i] {
			t.Fatalf("putDone = %v, want %v", putDone, want)
		}
	}
}

func TestDropOldestNeverBlocks(t *testing.T) {
	s := sim.New(1)
	met := obs.NewRegistry()
	reg := NewRegistry(s, met)
	st := reg.Open("tau")
	r := st.Attach(3, DropOldest)

	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := st.Put(p, Step{Index: i}); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		st.Close()
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if v, _ := met.Value("dyflow_stream_dropped_total"); v != 7 {
		t.Fatalf("dropped = %v, want 7", v)
	}
	// The survivors are the newest three, in order.
	var got []int
	for _, step := range r.Buffered() {
		got = append(got, step.Index)
	}
	want := []int{7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", got, want)
		}
	}
}

func TestReaderDetachUnblocksProducer(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	r := st.Attach(1, Block)

	var done sim.Time
	s.Spawn("producer", func(p *sim.Proc) {
		st.Put(p, Step{Index: 0})
		st.Put(p, Step{Index: 1}) // blocks: reader never drains
		done = p.Now()
	})
	s.After(5*time.Second, func() { r.Close() })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if done != 5*time.Second {
		t.Fatalf("producer unblocked at %v, want 5s (reader detach)", done)
	}
}

func TestCloseDrainsThenDetaches(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	r := st.Attach(5, Block)

	s.Spawn("producer", func(p *sim.Proc) {
		st.Put(p, Step{Index: 0})
		st.Put(p, Step{Index: 1})
		st.Close()
	})
	var got []int
	var finalErr error
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			step, err := r.Get(p)
			if err != nil {
				finalErr = err
				return
			}
			got = append(got, step.Index)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want both staged records", got)
	}
	if !errors.Is(finalErr, ErrDetached) {
		t.Fatalf("final err = %v, want ErrDetached", finalErr)
	}
}

func TestRegistryReopenAfterClose(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	st.Close()
	st2 := reg.Open("out")
	if st2 != st {
		t.Fatal("Open should reuse the stream object")
	}
	if st2.Closed() {
		t.Fatal("reopened stream should accept writes")
	}
	if reg.Lookup("nope") != nil {
		t.Fatal("Lookup must not create")
	}
}

func TestInterruptWhileBlockedOnPut(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	st.Attach(1, Block)

	var putErr error
	p := s.Spawn("producer", func(p *sim.Proc) {
		st.Put(p, Step{Index: 0})
		putErr = st.Put(p, Step{Index: 1}) // blocks forever
	})
	s.After(time.Second, func() { p.Interrupt(errors.New("sigterm")) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !sim.Interrupted(putErr) {
		t.Fatalf("putErr = %v, want interrupted", putErr)
	}
}

// Property: with Block readers and any consumer pacing, every produced step
// is delivered to every reader exactly once, in order (conservation).
func TestConservationProperty(t *testing.T) {
	f := func(nSteps uint8, capRaw uint8, pace1, pace2 uint8) bool {
		n := int(nSteps%50) + 1
		capacity := int(capRaw%5) + 1
		s := sim.New(7)
		reg := NewRegistry(s, obs.NewRegistry())
		st := reg.Open("out")
		r1 := st.Attach(capacity, Block)
		r2 := st.Attach(capacity, Block)

		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if st.Put(p, Step{Index: i}) != nil {
					return
				}
			}
			st.Close()
		})
		ok1, ok2 := true, true
		mk := func(r *Reader, pace time.Duration, okOut *bool) func(*sim.Proc) {
			return func(p *sim.Proc) {
				want := 0
				for {
					step, err := r.Get(p)
					if err != nil {
						*okOut = *okOut && want == n
						return
					}
					if step.Index != want {
						*okOut = false
					}
					want++
					p.Sleep(pace)
				}
			}
		}
		s.Spawn("c1", mk(r1, time.Duration(pace1%20)*time.Second, &ok1))
		s.Spawn("c2", mk(r2, time.Duration(pace2%20)*time.Second, &ok2))
		if err := s.RunUntilIdle(); err != nil {
			return false
		}
		return ok1 && ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndReopen(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("a")
	reg.Open("b")
	if names := reg.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	r := st.Attach(2, Block)
	if len(st.readers) != 1 || st.name != "a" {
		t.Fatalf("stream = %v", st)
	}
	s.Spawn("p", func(p *sim.Proc) {
		st.Put(p, Step{Index: 0})
		st.Put(p, Step{Index: 1})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if st.produced != 2 || r.Len() != 2 {
		t.Fatalf("produced=%d len=%d", st.produced, r.Len())
	}
	if got := st.String(); got != "stream(a, 1 readers, 2 produced)" {
		t.Fatalf("String = %q", got)
	}
	// Double close is a no-op; reopen resets readers.
	st.Close()
	st.Close()
	if !st.Closed() {
		t.Fatal("closed")
	}
	st2 := reg.Open("a")
	if st2 != st || st2.Closed() || len(st2.readers) != 0 {
		t.Fatalf("reopen: closed=%v readers=%d", st2.Closed(), len(st2.readers))
	}
	// Puts on a closed stream fail.
	st3 := reg.Open("c")
	st3.Close()
	s.Spawn("q", func(p *sim.Proc) {
		if err := st3.Put(p, Step{}); !errors.Is(err, ErrDetached) {
			t.Errorf("put on closed = %v", err)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderDoubleCloseAndZeroCapacity(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("x")
	r := st.Attach(0, Block) // clamps to 1
	if !r.buf.TryPut(Step{}) || r.buf.TryPut(Step{}) {
		t.Fatal("capacity did not clamp to 1")
	}
	r.Close()
	r.Close() // no-op
	if len(st.readers) != 0 {
		t.Fatal("reader not detached")
	}
}

// A consumer attaching after the producer closed the stream must see
// immediate EOF — not resurrect the stream and block forever. This is the
// recovery path of an analysis task restarted after its producer finished.
func TestAttachAfterCloseSeesEOF(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("gs.out")
	st.Close()

	// OpenRead must not reopen the closed stream.
	if got := reg.OpenRead("gs.out"); got != st || !got.Closed() {
		t.Fatal("OpenRead resurrected a closed stream")
	}
	// Open (the producer path) does reopen.
	r := reg.OpenRead("gs.out").Attach(1, Block)
	s.Spawn("late-consumer", func(p *sim.Proc) {
		if _, err := r.Get(p); !errors.Is(err, ErrDetached) {
			t.Errorf("late Get = %v, want ErrDetached", err)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if reg.Open("gs.out").Closed() {
		t.Fatal("Open must reopen for a new producer incarnation")
	}
}

// TestLateReaderSeesOnlyLaterPuts: Put buffers nothing for a reader that
// is not attached yet, so a reader attached after N puts receives exactly
// the records put after it attached. A producer may therefore skip
// building a record nobody is attached to read: no later reader can tell.
func TestLateReaderSeesOnlyLaterPuts(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("tau.T")
	var late, later *Reader
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			switch i {
			case 3:
				late = st.Attach(16, DropOldest)
			case 5:
				later = st.Attach(16, Block)
			}
			if err := st.Put(p, Step{Index: i}); err != nil {
				t.Errorf("Put %d: %v", i, err)
			}
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	indexes := func(r *Reader) []int {
		var out []int
		for _, rec := range r.Buffered() {
			out = append(out, rec.Index)
		}
		return out
	}
	if got, want := indexes(late), []int{3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Errorf("reader attached after 3 puts holds %v, want %v", got, want)
	}
	if got, want := indexes(later), []int{5, 6}; !slices.Equal(got, want) {
		t.Errorf("reader attached after 5 puts holds %v, want %v", got, want)
	}
}
