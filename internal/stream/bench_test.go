package stream

import (
	"testing"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// BenchmarkFanOutPut measures staging a record to several Block-mode
// consumers that keep up.
func BenchmarkFanOutPut(b *testing.B) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("out")
	const consumers = 4
	for i := 0; i < consumers; i++ {
		r := st.Attach(8, Block)
		s.Spawn("consumer", func(p *sim.Proc) {
			for {
				if _, err := r.Get(p); err != nil {
					return
				}
			}
		})
	}
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if st.Put(p, Step{Index: i}) != nil {
				return
			}
		}
		st.Close()
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDropOldestPut measures the monitoring path: a never-blocking
// producer against a slow DropOldest reader.
func BenchmarkDropOldestPut(b *testing.B) {
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	st := reg.Open("tau")
	st.Attach(4, DropOldest)
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if st.Put(p, Step{Index: i}) != nil {
				return
			}
		}
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}
