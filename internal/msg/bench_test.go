package msg

import (
	"testing"

	"dyflow/internal/sim"
)

type benchPayload struct {
	Sensor string    `json:"sensor"`
	Values []float64 `json:"values"`
}

// BenchmarkSendRecv measures one message round trip through the bus — the
// deliver/decode path every sensor update pays. (Formerly
// BenchmarkSendRecvJSON: the payload now crosses typed and zero-copy; the
// JSON codec runs only at the checkpoint boundary, see BenchmarkSnapshot.)
func BenchmarkSendRecv(b *testing.B) {
	s := sim.New(1)
	bus := NewBus(s)
	src := bus.Endpoint("client")
	dst := bus.Endpoint("server")
	payload := benchPayload{Sensor: "PACE", Values: make([]float64, 64)}

	s.Spawn("receiver", func(p *sim.Proc) {
		for {
			env, err := dst.Recv(p)
			if err != nil {
				return
			}
			if _, err := Payload[benchPayload](&env); err != nil {
				b.Error(err)
				return
			}
		}
	})
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := src.Send("server", payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkSendRecvBatch is BenchmarkSendRecv with the receiver draining
// same-instant bursts through RecvBatch — the pipeline stages' consumption
// pattern.
func BenchmarkSendRecvBatch(b *testing.B) {
	s := sim.New(1)
	bus := NewBus(s)
	src := bus.Endpoint("client")
	dst := bus.Endpoint("server")
	payload := benchPayload{Sensor: "PACE", Values: make([]float64, 64)}

	s.Spawn("receiver", func(p *sim.Proc) {
		var buf []Envelope
		for {
			batch, err := dst.RecvBatch(p, buf[:0])
			if err != nil {
				return
			}
			buf = batch
			for i := range batch {
				if _, err := Payload[benchPayload](&batch[i]); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := src.Send("server", payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	b.ReportMetric(float64(s.Handoffs())/float64(b.N), "handoffs/op")
}

// BenchmarkSnapshot measures the checkpoint-boundary cost: JSON-encoding
// the queued typed payloads of a bus snapshot. This is the one place a
// payload is encoded.
func BenchmarkSnapshot(b *testing.B) {
	s := sim.New(1)
	bus := jsonBus(s)
	src := bus.Endpoint("client")
	bus.Endpoint("server")
	payload := benchPayload{Sensor: "PACE", Values: make([]float64, 64)}
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			src.Send("server", payload)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := bus.Snapshot()
		if len(snap.Endpoints) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
