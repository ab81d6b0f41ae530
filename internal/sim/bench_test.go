package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures the kernel's raw event dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(time.Millisecond, tick)
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Dispatched())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCancelHeavy measures schedule/cancel churn: every iteration
// schedules a far-future timer and cancels it, as an interrupted Sleep does.
// Eager removal keeps the heap at depth ~1 instead of accumulating
// tombstones.
func BenchmarkCancelHeavy(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.cancelInternal(s.newEvent(s.now + time.Hour))
	}
	if s.Pending() != 0 {
		b.Fatalf("heap not empty: %d", s.Pending())
	}
}

// BenchmarkProcContextSwitch measures the coroutine handoff cost (one
// sleep-wake round trip per iteration).
func BenchmarkProcContextSwitch(b *testing.B) {
	s := New(1)
	s.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
	b.ReportMetric(float64(s.Dispatched())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSpawn measures a process's fixed cost: spawn, first wake and
// exit, with nothing in between.
func BenchmarkSpawn(b *testing.B) {
	s := New(1)
	body := func(p *Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Spawn("p", body)
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkQueueHandoff measures producer/consumer rendezvous through a
// bounded queue.
func BenchmarkQueueHandoff(b *testing.B) {
	s := New(1)
	q := NewQueue[int](4)
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if q.Put(p, i) != nil {
				return
			}
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, err := q.Get(p); err != nil {
				return
			}
		}
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkQueueBurstDrain measures the batched consumption path: the
// producer enqueues same-instant bursts, the consumer drains each burst
// with one GetAll wake. handoffs/op is the headline: ~2/burst instead of
// 2/item.
func BenchmarkQueueBurstDrain(b *testing.B) {
	const burst = 32
	s := New(1)
	q := NewQueue[int](0)
	rounds := (b.N + burst - 1) / burst
	s.Spawn("producer", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < burst; i++ {
				q.TryPut(i)
			}
			if p.Sleep(time.Millisecond) != nil {
				return
			}
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		var buf []int
		for {
			items, err := q.GetAll(p, buf[:0])
			if err != nil {
				return
			}
			buf = items
		}
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkFanOutProcs measures scheduling many concurrent processes.
func BenchmarkFanOutProcs(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		s := New(int64(i))
		for j := 0; j < 200; j++ {
			d := time.Duration(j%17+1) * time.Millisecond
			s.Spawn("w", func(p *Proc) {
				for k := 0; k < 10; k++ {
					if p.Sleep(d) != nil {
						return
					}
				}
			})
		}
		if err := s.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
		events += s.Dispatched()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
