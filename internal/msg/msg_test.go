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
		if env.SentAt != 100*time.Millisecond {
			t.Errorf("envelope = %+v", env)
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		if p.Sleep(100*time.Millisecond) != nil {
			return
		}
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

// TestSequenceNumbersPerSender: each endpoint counts the messages it has
// sent, and a snapshot holds the count as its Seq.
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
	var got []int
	for {
		env, ok := dst.TryRecv()
		if !ok {
			break
		}
		v, err := Payload[int](&env)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dst received %v, want [1 2 3]", got)
	}
	want := map[string]uint64{"a": 2, "b": 1, "dst": 0}
	for _, es := range bus.Snapshot().Endpoints {
		if es.Seq != want[es.Name] {
			t.Fatalf("%s sent %d messages, its snapshot counts %d", es.Name, want[es.Name], es.Seq)
		}
	}
}
