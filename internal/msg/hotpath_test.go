package msg

// Regression tests for the typed zero-copy payload path: checkpoint byte
// determinism at the snapshot boundary, OrderFilter restore interactions
// after kill/restart, batched endpoint draining, and a race guard for
// concurrent independent worlds.

import (
	"bytes"
	"encoding/json"
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

// TestSnapshotByteDeterminism: the snapshot-boundary JSON encoding of a
// typed payload must be byte-identical to the old per-send codec
// (json.Marshal at Send time), and two identical runs must snapshot to
// identical bytes — the property the cache-key identity and restore layers
// depend on.
func TestSnapshotByteDeterminism(t *testing.T) {
	build := func() BusSnapshot {
		s := sim.New(7)
		bus := NewBus(s)
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

	// The envelope Data must equal what the old codec wrote at Send time.
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
			t.Fatalf("envelope %d Data = %s, want %s", i, env.Data, want)
		}
	}
}

// TestRestoredEnvelopeDecode: envelopes re-queued by Restore carry only
// JSON Data; Decode must fall back to unmarshalling, and the typed and
// restored paths must agree.
func TestRestoredEnvelopeDecode(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	a := bus.Endpoint("a")
	bus.Endpoint("b")
	sent := hotPayload{Sensor: "MEMORYHWM", Step: 42, Values: []float64{3, 4}}
	s.Spawn("sender", func(p *sim.Proc) { a.Send("b", sent) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	snap := bus.Snapshot()

	s2 := sim.New(1)
	bus2 := NewBus(s2)
	bus2.Restore(snap)
	env, ok := bus2.Endpoint("b").TryRecv()
	if !ok {
		t.Fatal("restored queue empty")
	}
	if env.payload != nil {
		t.Fatal("restored envelope should not carry a typed payload")
	}
	var got hotPayload
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Sensor != sent.Sensor || got.Step != sent.Step || len(got.Values) != 2 {
		t.Fatalf("restored decode = %+v, want %+v", got, sent)
	}
	// Sequence counters continue: the next send from "a" is Seq 2.
	a2 := bus2.Endpoint("a")
	s2.Spawn("sender", func(p *sim.Proc) { a2.Send("b", sent) })
	if err := s2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	env2, _ := bus2.Endpoint("b").TryRecv()
	if env2.Seq != 2 {
		t.Fatalf("post-restore Seq = %d, want 2", env2.Seq)
	}
}

// TestDecodeTypedMismatchIsError: a live payload is handed over as-is, so a
// Decode target of another type is refused and left untouched, while the
// same envelope, restored from its JSON form, decodes by shape.
func TestDecodeTypedMismatchIsError(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
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
	var loose map[string]any
	if err := env.Decode(&loose); err == nil || loose != nil {
		t.Fatalf("mismatched decode = %v, %v; want an error and no value", loose, err)
	}

	restored := NewBus(s)
	restored.Restore(snap)
	env, _ = restored.Endpoint("b").TryRecv()
	if err := env.Decode(&loose); err != nil {
		t.Fatal(err)
	}
	if loose["sensor"] != "PACE" || loose["step"] != float64(7) {
		t.Fatalf("restored decode = %v", loose)
	}
}

// TestOrderFilterRestoreAfterReset covers the kill/restart interaction: a
// restored filter carries the pre-crash high-water marks, a restarted
// sender (sequence numbers starting over at 1) is dead to the filter until
// Reset forgets its mark.
func TestOrderFilterRestoreAfterReset(t *testing.T) {
	f := NewOrderFilter()
	if !f.Admit(Envelope{From: "client", Seq: 5}) {
		t.Fatal("fresh seq 5 should pass")
	}
	marks := f.State()

	// Orchestrator restarts: filter restored from the checkpoint.
	f2 := NewOrderFilter()
	f2.RestoreState(marks)
	// A stale duplicate from before the crash is still rejected.
	if f2.Admit(Envelope{From: "client", Seq: 4}) {
		t.Fatal("stale seq 4 must be dropped after restore")
	}
	// The client also restarted and begins again at Seq 1: without Reset
	// the restored high-water mark drops everything.
	if f2.Admit(Envelope{From: "client", Seq: 1}) {
		t.Fatal("restored mark should reject the restarted sender's seq 1")
	}
	f2.Reset("client")
	if !f2.Admit(Envelope{From: "client", Seq: 1}) {
		t.Fatal("after Reset the restarted sender's seq 1 must pass")
	}
	if !f2.Admit(Envelope{From: "client", Seq: 2}) {
		t.Fatal("seq 2 should pass")
	}
	if f2.Admit(Envelope{From: "client", Seq: 2}) {
		t.Fatal("duplicate seq 2 must be dropped")
	}

	// State snapshots are copies: mutating the exported map must not leak
	// into the live filter.
	st := f2.State()
	st["client"] = 999
	if !f2.Admit(Envelope{From: "client", Seq: 3}) {
		t.Fatal("mutated State() copy leaked into the filter")
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
			var pl hotPayload
			if err := env.Decode(&pl); err != nil {
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
			bus.Latency = UniformJitterLatency(s, time.Millisecond, time.Millisecond)
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
						var pl hotPayload
						if env.Decode(&pl) == nil {
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
