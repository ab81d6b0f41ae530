package msg

// Regression tests for the typed zero-copy payload path: checkpoint byte
// determinism at the snapshot boundary, restored envelopes, batched
// endpoint draining, and a race guard for concurrent independent worlds.

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"dyflow/internal/sim"
)

type hotPayload struct {
	Sensor string    `json:"sensor"`
	Step   int       `json:"step"`
	Values []float64 `json:"values"`
}

// jsonBus returns a bus whose checkpoint codec encodes every payload as
// JSON and decodes every payload as a hotPayload.
func jsonBus(s *sim.Sim) *Bus {
	bus := NewBus(s)
	bus.Encode = func(_ string, payload any) ([]byte, error) { return json.Marshal(payload) }
	bus.Decode = func(_ string, data []byte) (any, error) {
		var v hotPayload
		err := json.Unmarshal(data, &v)
		return v, err
	}
	return bus
}

// TestSnapshotByteDeterminism: a snapshot holds each queued payload as the
// bytes the bus's Encode gives it, handed the endpoint it is queued on,
// and two identical runs must snapshot to identical bytes — the property
// the cache-key identity and restore layers depend on.
func TestSnapshotByteDeterminism(t *testing.T) {
	build := func() BusSnapshot {
		s := sim.New(7)
		bus := NewBus(s)
		bus.Encode = func(to string, payload any) ([]byte, error) {
			if to != "server" {
				t.Errorf("payload queued on %q encoded for %q", "server", to)
			}
			return json.Marshal(payload)
		}
		a := bus.Endpoint("client")
		bus.Endpoint("server")
		s.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				a.Send("server", hotPayload{Sensor: "PACE", Step: i, Values: []float64{1.5, 2.5}})
			}
		})
		if err := s.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return bus.Snapshot()
	}

	snap1, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("same-seed snapshots differ:\n%s\n%s", snap1, snap2)
	}

	snap := build()
	var server *EndpointSnapshot
	for i := range snap.Endpoints {
		if snap.Endpoints[i].Name == "server" {
			server = &snap.Endpoints[i]
		}
	}
	if server == nil || len(server.Queue) != 3 {
		t.Fatalf("server endpoint snapshot missing or wrong depth: %+v", snap)
	}
	for i, env := range server.Queue {
		want, _ := json.Marshal(hotPayload{Sensor: "PACE", Step: i, Values: []float64{1.5, 2.5}})
		if !bytes.Equal(env.Data, want) {
			t.Fatalf("envelope %d = %+v (Data %s), want Data %s", i, env, env.Data, want)
		}
	}
}

// TestRestoredEnvelopeDecode: Restore decodes every queued payload up
// front with the bus's Decode, handed the endpoint it is queued on, so a
// restored envelope is handed over by Payload as a live one is. A payload
// Decode refuses is an error.
func TestRestoredEnvelopeDecode(t *testing.T) {
	s := sim.New(1)
	bus := jsonBus(s)
	a := bus.Endpoint("a")
	bus.Endpoint("b")
	sent := hotPayload{Sensor: "MEMORYHWM", Step: 42, Values: []float64{3, 4}}
	s.Spawn("sender", func(p *sim.Proc) { a.Send("b", sent) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	snap := bus.Snapshot()

	refused := errors.New("refused")
	bus.Decode = func(string, []byte) (any, error) { return nil, refused }
	if err := bus.Restore(snap); !errors.Is(err, refused) {
		t.Fatalf("Restore with a refusing Decode = %v", err)
	}

	s2 := sim.New(1)
	bus2 := jsonBus(s2)
	decode := bus2.Decode
	var decodedFor []string
	bus2.Decode = func(to string, data []byte) (any, error) {
		decodedFor = append(decodedFor, to)
		return decode(to, data)
	}
	if err := bus2.Restore(snap); err != nil || len(decodedFor) != 1 || decodedFor[0] != "b" {
		t.Fatalf("Restore = %v, decoded for %v", err, decodedFor)
	}
	env, ok := bus2.Endpoint("b").TryRecv()
	if !ok {
		t.Fatal("restored queue empty")
	}
	got, err := Payload[hotPayload](&env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensor != sent.Sensor || got.Step != sent.Step || len(got.Values) != 2 {
		t.Fatalf("restored payload = %+v, want %+v", got, sent)
	}
	// Send counts continue: after one more send, "a" has sent two.
	a2 := bus2.Endpoint("a")
	s2.Spawn("sender", func(p *sim.Proc) { a2.Send("b", sent) })
	if err := s2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, es := range bus2.Snapshot().Endpoints {
		if es.Name == "a" && es.Seq != 2 {
			t.Fatalf("post-restore send count = %d, want 2", es.Seq)
		}
	}
}

// TestDecodeTypedMismatchIsError: a payload is handed over as-is, so a
// Payload of another type is refused and yields no value — for a live
// envelope and a restored one alike.
func TestDecodeTypedMismatchIsError(t *testing.T) {
	s := sim.New(1)
	bus := jsonBus(s)
	a := bus.Endpoint("a")
	bus.Endpoint("b")
	s.Spawn("sender", func(p *sim.Proc) {
		a.Send("b", hotPayload{Sensor: "PACE", Step: 7})
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	snap := bus.Snapshot()
	env, _ := bus.Endpoint("b").TryRecv()
	loose, err := Payload[map[string]any](&env)
	if err == nil || loose != nil {
		t.Fatalf("mismatched payload = %v, %v; want an error and no value", loose, err)
	}

	restored := jsonBus(s)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	env, _ = restored.Endpoint("b").TryRecv()
	if loose, err = Payload[map[string]any](&env); err == nil || loose != nil {
		t.Fatalf("mismatched restored payload = %v, %v; want an error and no value", loose, err)
	}
	if got, err := Payload[hotPayload](&env); err != nil || got.Step != 7 {
		t.Fatalf("restored payload = %+v, %v", got, err)
	}
}

// TestRecvBatchDrainsBurst: a same-instant burst is delivered to RecvBatch
// in one wake, in send order, and the batch buffer recycles.
func TestRecvBatchDrainsBurst(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	a := bus.Endpoint("a")
	dst := bus.Endpoint("dst")
	const burst = 16
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < burst; i++ {
			a.Send("dst", hotPayload{Step: i})
		}
	})
	var handoffs uint64
	var steps []int
	var buf []Envelope
	s.Spawn("receiver", func(p *sim.Proc) {
		before := s.Handoffs()
		batch, err := dst.RecvBatch(p, buf[:0])
		if err != nil {
			t.Error(err)
			return
		}
		handoffs = s.Handoffs() - before
		for _, env := range batch {
			pl, err := Payload[hotPayload](&env)
			if err != nil {
				t.Error(err)
				return
			}
			steps = append(steps, pl.Step)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(steps) != burst {
		t.Fatalf("received %d messages, want %d", len(steps), burst)
	}
	for i, st := range steps {
		if st != i {
			t.Fatalf("steps[%d] = %d, want %d (send order)", i, st, i)
		}
	}
	if handoffs != 1 {
		t.Fatalf("burst cost %d handoffs, want 1", handoffs)
	}
}

// TestTypedPayloadRaceGuard runs several independent worlds concurrently,
// each hammering the typed send/recv path. Under -race (make verify) this
// guards against the zero-copy path introducing shared mutable state
// between worlds (e.g. through pooled deliveries or a shared scratch).
func TestTypedPayloadRaceGuard(t *testing.T) {
	const worlds = 8
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := sim.New(seed)
			bus := NewBus(s)
			src := bus.Endpoint("client")
			dst := bus.Endpoint("server")
			s.Spawn("sender", func(p *sim.Proc) {
				for i := 0; i < 200; i++ {
					src.Send("server", hotPayload{Sensor: "PACE", Step: i, Values: []float64{float64(i)}})
					if p.Sleep(time.Millisecond) != nil {
						return
					}
				}
			})
			got := 0
			s.Spawn("receiver", func(p *sim.Proc) {
				var buf []Envelope
				for {
					batch, err := dst.RecvBatch(p, buf[:0])
					if err != nil {
						return
					}
					buf = batch
					for _, env := range batch {
						if _, err := Payload[hotPayload](&env); err == nil {
							got++
						}
					}
				}
			})
			s.Run(400 * time.Millisecond)
			if got != 200 {
				t.Errorf("world %d received %d/200 messages", seed, got)
			}
			s.Stop()
		}(int64(w))
	}
	wg.Wait()
}

// TestPayloadTypedPathAllocatesNothing: handing a live payload to its
// receiver is a type assertion — no reflect, no copy to the heap.
func TestPayloadTypedPathAllocatesNothing(t *testing.T) {
	env := Envelope{payload: hotPayload{Sensor: "PACE", Step: 3, Values: []float64{1, 2}}}
	slice := Envelope{payload: []hotPayload{{Step: 1}, {Step: 2}}}
	n := testing.AllocsPerRun(100, func() {
		if p, err := Payload[hotPayload](&env); err != nil || p.Step != 3 {
			t.Fatalf("Payload = %+v, %v", p, err)
		}
		if ps, err := Payload[[]hotPayload](&slice); err != nil || len(ps) != 2 {
			t.Fatalf("Payload = %+v, %v", ps, err)
		}
	})
	if n != 0 {
		t.Errorf("the typed Payload path allocates %v times, want 0", n)
	}
}
