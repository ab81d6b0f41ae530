package msg

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"dyflow/internal/sim"
)

// ordered is one payload of a sendOrder drive: the Nth message sender
// Sender sent to one receiver, and the instant it sent it at.
type ordered struct {
	Sender, N int
	At        sim.Time
}

// How a sendOrder receiver takes its messages.
const (
	byRecvBatch = iota // a process draining every pending message per wake
	byRecv             // a process taking one message per wake
	byPacedRecv        // byRecv, sleeping a millisecond after each message
	byTryRecv          // the driver polling between Run calls
	receiveModes
)

// orderBus returns a bus whose checkpoint codec encodes an ordered payload
// as JSON.
func orderBus(s *sim.Sim) *Bus {
	bus := NewBus(s)
	bus.Encode = func(_ string, payload any) ([]byte, error) { return json.Marshal(payload) }
	bus.Decode = func(_ string, data []byte) (any, error) {
		var v ordered
		err := json.Unmarshal(data, &v)
		return v, err
	}
	return bus
}

// sendOrder drives senders and receivers drawn from next(n) ∈ [0, n) over
// steps steps. Each step spawns bursts, each sent by one sender to one
// receiver after a drawn delay, so a step's sends fall within one instant
// and across instants; the step runs past its last burst. Between steps
// the driver may poll the TryRecv receivers, and may snapshot the bus and
// restore it into a fresh bus on the same simulation, whose receivers take
// over from the old ones. Every receiver must see every payload sent to it
// exactly once, each sender's in send order, with the instant it was sent
// at as SentAt. It returns how many messages were delivered and how many
// envelopes the snapshots held.
func sendOrder(t testing.TB, steps int, next func(n int) int) (delivered, queued int) {
	t.Helper()
	s := sim.New(1)
	defer s.Stop()
	bus := orderBus(s)
	senders, receivers := make([]string, 1+next(3)), make([]string, 1+next(3))
	modes := make([]int, len(receivers))
	for i := range senders {
		senders[i] = "s" + string(rune('0'+i))
		bus.Endpoint(senders[i])
	}
	for i := range receivers {
		receivers[i] = "r" + string(rune('0'+i))
		modes[i] = next(receiveModes)
		bus.Endpoint(receivers[i])
	}
	// sent[r][s] and seen[r][s] count the payloads sender s sent to
	// receiver r and the ones r has taken.
	sent, seen := make([][]int, len(receivers)), make([][]int, len(receivers))
	for r := range receivers {
		sent[r], seen[r] = make([]int, len(senders)), make([]int, len(senders))
	}
	take := func(r int, env *Envelope) {
		v, err := Payload[ordered](env)
		if err != nil {
			t.Fatal(err)
		}
		if v.N != seen[r][v.Sender] || env.SentAt != v.At {
			t.Fatalf("%s took message %d of %s, sent at %v, as its message %d, sent at %v",
				receivers[r], v.N, senders[v.Sender], v.At, seen[r][v.Sender], env.SentAt)
		}
		seen[r][v.Sender]++
		delivered++
	}
	var procs []*sim.Proc
	spawnReceivers := func() {
		procs = procs[:0]
		for r, mode := range modes {
			ep := bus.Endpoint(receivers[r])
			switch mode {
			case byRecvBatch:
				procs = append(procs, s.Spawn(receivers[r], func(p *sim.Proc) {
					var buf []Envelope
					for {
						batch, err := ep.RecvBatch(p, buf[:0])
						if err != nil {
							return
						}
						buf = batch
						for i := range batch {
							take(r, &batch[i])
						}
					}
				}))
			case byRecv, byPacedRecv:
				procs = append(procs, s.Spawn(receivers[r], func(p *sim.Proc) {
					for {
						env, err := ep.Recv(p)
						if err != nil {
							return
						}
						take(r, &env)
						if mode == byPacedRecv && p.Sleep(time.Millisecond) != nil {
							return
						}
					}
				}))
			}
		}
	}
	poll := func() {
		for r, mode := range modes {
			if mode != byTryRecv {
				continue
			}
			for {
				env, ok := bus.Endpoint(receivers[r]).TryRecv()
				if !ok {
					break
				}
				take(r, &env)
			}
		}
	}
	spawnReceivers()
	for step := 0; step < steps; step++ {
		last := 0
		for n := next(4); n > 0; n-- {
			from, to := next(len(senders)), next(len(receivers))
			delay, burst := next(3), 1+next(4)
			last = max(last, delay)
			ep := bus.Endpoint(senders[from])
			s.Spawn(senders[from], func(p *sim.Proc) {
				if p.Sleep(time.Duration(delay)*time.Millisecond) != nil {
					return
				}
				for ; burst > 0; burst-- {
					v := ordered{Sender: from, N: sent[to][from], At: p.Now()}
					if err := ep.Send(receivers[to], v); err != nil {
						t.Error(err)
						return
					}
					sent[to][from]++
				}
			})
		}
		if err := s.Run(s.Now() + time.Duration(last+next(3))*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if next(2) == 0 {
			poll()
		}
		if next(4) == 0 {
			snap := bus.Snapshot()
			for _, es := range snap.Endpoints {
				queued += len(es.Queue)
			}
			for _, p := range procs {
				p.Interrupt(nil)
			}
			bus = orderBus(s)
			if err := bus.Restore(snap); err != nil {
				t.Fatal(err)
			}
			spawnReceivers()
		}
	}
	if err := s.Run(s.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	poll()
	for r := range receivers {
		for i := range senders {
			if seen[r][i] != sent[r][i] {
				t.Fatalf("%s took %d of the %d messages %s sent it", receivers[r], seen[r][i], sent[r][i], senders[i])
			}
		}
	}
	return delivered, queued
}

// TestProperty_Bus_DeliversInSendOrder: over seeded drives, the bus hands
// every receiver each sender's messages exactly once and in send order,
// however the receiver takes them and across a snapshot and restore
// taken between Run calls. The stages' receive loops rely on this: none
// of them re-checks the order. The drives must snapshot queued envelopes.
func TestProperty_Bus_DeliversInSendOrder(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var delivered, queued int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, q := sendOrder(t, 40, rng.Intn)
		delivered += d
		queued += q
	}
	if delivered == 0 || queued == 0 {
		t.Fatalf("%d messages delivered, %d held by snapshots: the drives must deliver and snapshot queued envelopes", delivered, queued)
	}
	t.Logf("%d messages delivered; snapshots held %d queued envelopes", delivered, queued)
}

// FuzzBus_DeliversInSendOrder is the property over fuzzer-chosen drives:
// each input byte is one draw, and an exhausted input draws 0.
func FuzzBus_DeliversInSendOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 0, 3, 1, 3, 1, 0, 2, 3, 1, 2, 0, 1, 0, 0, 2, 1, 1, 3, 0})
	f.Add([]byte("\x01\x02\x02\x01\x03\x00\x01\x02\x02\x03\x01\x00\x00\x02\x01\x01\x03\x02\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		sendOrder(t, 20, next)
	})
}
