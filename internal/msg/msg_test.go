package msg

import (
	"testing"
	"time"

	"dyflow/internal/sim"
)

type reading struct {
	Sensor string  `json:"sensor"`
	Value  float64 `json:"value"`
}

func TestSendRecvJSONRoundTrip(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	client := bus.Endpoint("client0")
	server := bus.Endpoint("server")

	var got reading
	var at sim.Time
	s.Spawn("server", func(p *sim.Proc) {
		env, err := server.Recv(p)
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		if got, err = Payload[reading](&env); err != nil {
			t.Errorf("Payload: %v", err)
		}
		at = p.Now()
		if env.From != "client0" || env.Seq != 1 {
			t.Errorf("envelope = %+v", env)
		}
	})
	bus.Latency = func(from, to string) time.Duration { return 100 * time.Millisecond }
	s.Spawn("client", func(p *sim.Proc) {
		if err := client.Send("server", reading{Sensor: "PACE", Value: 36.5}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got.Sensor != "PACE" || got.Value != 36.5 {
		t.Fatalf("payload = %+v", got)
	}
	if at != 100*time.Millisecond {
		t.Fatalf("delivered at %v, want 100ms", at)
	}
}

func TestSendUnknownEndpoint(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	ep := bus.Endpoint("a")
	if err := ep.Send("nope", 1); err == nil {
		t.Fatal("send to unknown endpoint should fail")
	}
}

func TestUnmarshalablePayloadSurfacesAtSnapshot(t *testing.T) {
	// Encoding happens only at the checkpoint boundary: the typed hot
	// path delivers any payload zero-copy, and a payload the bus's Encode
	// cannot represent is a stage bug that surfaces as a panic at Snapshot.
	s := sim.New(1)
	bus := jsonBus(s)
	a := bus.Endpoint("a")
	bus.Endpoint("b")
	if err := a.Send("b", func() {}); err != nil {
		t.Fatalf("typed send should accept any payload, got %v", err)
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of an unmarshalable queued payload should panic")
		}
	}()
	bus.Snapshot()
}

func TestSequenceNumbersPerSender(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	a := bus.Endpoint("a")
	b := bus.Endpoint("b")
	dst := bus.Endpoint("dst")
	s.Spawn("senders", func(p *sim.Proc) {
		a.Send("dst", 1)
		a.Send("dst", 2)
		b.Send("dst", 3)
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	seqs := map[string][]uint64{}
	for {
		env, ok := dst.TryRecv()
		if !ok {
			break
		}
		seqs[env.From] = append(seqs[env.From], env.Seq)
	}
	if len(seqs["a"]) != 2 || seqs["a"][0] != 1 || seqs["a"][1] != 2 {
		t.Fatalf("a seqs = %v", seqs["a"])
	}
	if len(seqs["b"]) != 1 || seqs["b"][0] != 1 {
		t.Fatalf("b seqs = %v", seqs["b"])
	}
}

func TestOutOfOrderDeliveryAndFilter(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	client := bus.Endpoint("client")
	server := bus.Endpoint("server")

	// First message gets high latency, second low: they arrive inverted.
	latencies := []time.Duration{500 * time.Millisecond, 10 * time.Millisecond}
	i := 0
	bus.Latency = func(from, to string) time.Duration {
		d := latencies[i%len(latencies)]
		i++
		return d
	}
	s.Spawn("client", func(p *sim.Proc) {
		client.Send("server", reading{Value: 1})
		client.Send("server", reading{Value: 2})
	})
	var admitted []float64
	filter := NewOrderFilter()
	s.Spawn("server", func(p *sim.Proc) {
		for n := 0; n < 2; n++ {
			env, err := server.Recv(p)
			if err != nil {
				return
			}
			if !filter.Admit(env.From, env.Seq) {
				continue
			}
			r, _ := Payload[reading](&env)
			admitted = append(admitted, r.Value)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Message 2 (seq 2) arrives first and is admitted; message 1 (seq 1)
	// arrives late and is dropped as stale.
	if len(admitted) != 1 || admitted[0] != 2 {
		t.Fatalf("admitted = %v, want [2]", admitted)
	}
}

func TestUniformJitterLatencyDeterministic(t *testing.T) {
	s1 := sim.New(42)
	s2 := sim.New(42)
	l1 := UniformJitterLatency(s1, time.Millisecond, 10*time.Millisecond)
	l2 := UniformJitterLatency(s2, time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 20; i++ {
		a, b := l1("x", "y"), l2("x", "y")
		if a != b {
			t.Fatalf("jitter diverged at %d: %v vs %v", i, a, b)
		}
		if a < time.Millisecond || a >= 11*time.Millisecond {
			t.Fatalf("latency %v out of range", a)
		}
	}
}
