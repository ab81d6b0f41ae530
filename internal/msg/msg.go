// Package msg is the messaging layer DYFLOW's stages communicate over — the
// stand-in for the paper's PyZMQ sockets and shared queues. The bus
// delivers every message within the instant it is sent, in send order, so
// no receiver re-checks the order: the paper's Monitor server filters
// out-of-order messages because its sockets can reorder, and this bus
// cannot (TestProperty_Bus_DeliversInSendOrder).
//
// The paper's services exchange JSON-formatted messages; this reproduction
// delivers typed payloads instead. The payload value crosses the simulated
// wire as-is and Payload[T] hands it to the receiver by type assertion —
// no reflect, no marshal/unmarshal round trip, no allocation (see
// DESIGN.md §14). The bus encodes nothing itself: a snapshot holds each
// queued payload as the bytes the checkpoint owner's codec (Bus.Encode)
// gives it, and a restore decodes each back (Bus.Decode) into the payload
// its receiver reads before re-queuing it, so a restored envelope is a
// live one.
//
// A payload belongs to its receiver from delivery until the receiver's
// receive loop is done with it, and then goes back to its sender: the
// receiver releases it on every receive path, and no one reads it after
// that. All three links send their payloads by pointer this way — the
// Monitor client's batches, the Monitor server's metric lists and
// Decision's suggestion rounds — and each sender recycles what comes back
// instead of allocating, through one Lease type. Only the Monitor client
// re-sends: a worker sends the batch it built for an unchanged disk scan
// again, in several envelopes, and that last batch is the one exception
// to handing a payload back — the client does not reuse it until the
// worker's re-send cache lets go of it and every envelope carrying it has
// been released. A payload a restore decoded has no sender to go back
// to, and releasing it does nothing. The instant a payload was sent
// travels on the envelope: SentAt is the Monitor server's ObservedAt,
// which its metric messages do not hold.
//
// A live payload may also point at values the receiver keeps: a Monitor
// update or metric message names its series by a *sensor.Series
// descriptor, which Decision and the experiment recorder index their
// per-series state by. A restored payload names fresh descriptors, which
// its receiver resolves by key.
package msg

import (
	"fmt"
	"sort"

	"dyflow/internal/sim"
)

// Envelope is one delivered message. It names no endpoint: the receiver
// knows its own, and no receiver asks who sent a message.
type Envelope struct {
	// SentAt is the virtual send time. Decision reads a forwarded metric's
	// ObservedAt from it.
	SentAt sim.Time

	// payload is the typed payload, handed over as-is (zero-copy).
	payload any
}

// Payload returns the envelope's payload as a T. The payload is handed
// over as-is, zero-copy, by type assertion, so T must be the type the
// sender sent: a mismatch is an error.
func Payload[T any](e *Envelope) (T, error) {
	v, ok := e.payload.(T)
	if !ok {
		return v, fmt.Errorf("msg: payload is %T, not %T", e.payload, v)
	}
	return v, nil
}

// Lease is a recycled payload's ownership, the rule of the package doc:
// the holders the payload still has — each envelope carrying it, or its
// taker before the send — whether its sender's re-send cache holds it,
// and the free list it goes back to. The zero Lease has no home: its
// payload, restored from a checkpoint or built by hand, is never
// recycled, and releasing it does nothing. A free list belongs to one
// sender and takes no lock: a world is single-threaded.
type Lease[P any] struct {
	home   *[]*P
	refs   int32
	cached bool
}

// NewLease returns the lease of a payload whose free list is home.
func NewLease[P any](home *[]*P) Lease[P] { return Lease[P]{home: home} }

// Hold counts one more holder of the payload.
func (l *Lease[P]) Hold() { l.refs++ }

// Cache marks whether the sender's re-send cache holds the payload.
func (l *Lease[P]) Cache(held bool) { l.cached = held }

// Release counts one holder done with the payload; releasing it more
// often than it was held is a receiver bug and panics.
func (l *Lease[P]) Release() {
	if l.home == nil {
		return
	}
	if l.refs--; l.refs < 0 {
		panic(fmt.Sprintf("msg: %T released more often than held", (*P)(nil)))
	}
}

// Home puts p, the payload l is the lease of, on its free list when it is
// idle — it has a home, no one holds it and no cache does — and reports
// whether it did. The caller poisons a payload sent home, so a read after
// release shows.
func (l *Lease[P]) Home(p *P) bool {
	if l.home == nil || l.refs != 0 || l.cached {
		return false
	}
	*l.home = append(*l.home, p)
	return true
}

// Take returns a payload off free, or nil when the list is empty.
func Take[P any](free *[]*P) *P {
	n := len(*free)
	if n == 0 {
		return nil
	}
	p := (*free)[n-1]
	*free = (*free)[:n-1]
	return p
}

// Endpoint is a named mailbox on the bus.
type Endpoint struct {
	bus  *Bus
	name string
	in   *sim.Queue[Envelope]
	sent uint64 // messages sent, EndpointSnapshot.Seq
}

// Recv blocks the calling process until a message arrives.
func (e *Endpoint) Recv(p *sim.Proc) (Envelope, error) { return e.in.Get(p) }

// RecvBatch blocks until at least one message is pending and then drains
// every pending message, appending to buf (pass buf[:0] to recycle the
// batch across calls). A same-instant burst of N messages costs one
// kernel→process handoff instead of N — the run-to-completion consumption
// pattern the pipeline stages use.
func (e *Endpoint) RecvBatch(p *sim.Proc, buf []Envelope) ([]Envelope, error) {
	return e.in.GetAll(p, buf)
}

// TryRecv returns a pending message without blocking.
func (e *Endpoint) TryRecv() (Envelope, bool) { return e.in.TryGet() }

// Send delivers payload to the named endpoint within the current instant,
// after every message sent before it. The payload travels typed and unserialized: no one may mutate it
// while an envelope carries it (a sender may send the same value again, and
// takes it back only once its receivers released it — see the package
// doc), and the bus's Encode must encode it by the time a checkpoint
// snapshot is taken (one it cannot is a stage bug and surfaces as a panic
// at Snapshot). Sending to an unknown endpoint returns an error.
func (e *Endpoint) Send(to string, payload any) error {
	return e.bus.send(e, to, payload)
}

// delivery is a pooled in-flight message: the scheduled bus event carries a
// *delivery instead of a fresh closure, so the steady-state send path does
// not allocate per message.
type delivery struct {
	bus *Bus
	dst *Endpoint
	env Envelope
}

// deliverCB runs in kernel context, as the event of a message's delivery.
func deliverCB(arg any) {
	d := arg.(*delivery)
	b, dst, env := d.bus, d.dst, d.env
	d.dst = nil
	d.env = Envelope{}
	b.pool = append(b.pool, d)
	dst.in.TryPut(env)
	if b.OnDepth != nil {
		b.OnDepth(dst.name, dst.in.Len())
	}
}

// Bus connects endpoints with typed delivery.
type Bus struct {
	sim       *sim.Sim
	endpoints map[string]*Endpoint
	pool      []*delivery // recycled in-flight records
	// OnDepth, if set, observes the destination queue depth after each
	// delivery (the flight recorder's queue-depth sampling hook).
	OnDepth func(to string, depth int)
	// Encode and Decode are the checkpoint owner's payload codec, each
	// handed the endpoint a payload is queued on: Snapshot holds a queued
	// payload as Encode's bytes, Restore re-queues what Decode returns.
	Encode func(to string, payload any) ([]byte, error)
	Decode func(to string, data []byte) (any, error)
}

// NewBus creates an empty bus.
func NewBus(s *sim.Sim) *Bus {
	return &Bus{sim: s, endpoints: make(map[string]*Endpoint)}
}

// Endpoint creates (or returns) the endpoint with the given name.
func (b *Bus) Endpoint(name string) *Endpoint {
	if ep, ok := b.endpoints[name]; ok {
		return ep
	}
	ep := &Endpoint{bus: b, name: name, in: sim.NewQueue[Envelope](0)}
	b.endpoints[name] = ep
	return ep
}

func (b *Bus) send(from *Endpoint, to string, payload any) error {
	dst, ok := b.endpoints[to]
	if !ok {
		return fmt.Errorf("msg: no endpoint %q", to)
	}
	from.sent++
	var d *delivery
	if n := len(b.pool); n > 0 {
		d = b.pool[n-1]
		b.pool[n-1] = nil
		b.pool = b.pool[:n-1]
	} else {
		d = &delivery{bus: b}
	}
	d.dst = dst
	d.env = Envelope{SentAt: b.sim.Now(), payload: payload}
	// The delivery is an event of its own, so same-instant sends and wakes
	// keep the order the kernel gives them.
	b.sim.AfterCall(0, deliverCB, d)
	return nil
}

// QueuedEnvelope is an envelope as a checkpoint holds it: Data is its
// payload, as the bus's Encode gave it.
type QueuedEnvelope struct {
	SentAt sim.Time
	Data   []byte
}

// EndpointSnapshot is one endpoint's checkpointable state: how many
// messages it has sent and the envelopes delivered to it but not yet
// consumed.
type EndpointSnapshot struct {
	Name string
	// Seq counts the messages the endpoint has sent; a restored endpoint
	// counts on from it. No receiver reads it: it measures the traffic.
	Seq   uint64
	Queue []QueuedEnvelope
}

// BusSnapshot is the bus's checkpointable state, endpoints sorted by name.
type BusSnapshot struct {
	Endpoints []EndpointSnapshot
}

// Snapshot captures every endpoint's send count and queued envelopes, each
// payload encoded by Encode. A payload Encode fails on is a stage bug and panics.
// Take it between two instants: every message sent by then is delivered.
func (b *Bus) Snapshot() BusSnapshot {
	var snap BusSnapshot
	for name, ep := range b.endpoints {
		es := EndpointSnapshot{Name: name, Seq: ep.sent}
		for _, env := range ep.in.Items() {
			data, err := b.Encode(name, env.payload)
			if err != nil {
				panic(fmt.Errorf("msg: payload queued on %q: %w", name, err))
			}
			es.Queue = append(es.Queue, QueuedEnvelope{env.SentAt, data})
		}
		snap.Endpoints = append(snap.Endpoints, es)
	}
	sort.Slice(snap.Endpoints, func(i, j int) bool {
		return snap.Endpoints[i].Name < snap.Endpoints[j].Name
	})
	return snap
}

// Restore re-creates the snapshot's endpoints on this bus, their send
// counts continuing where they left off, and re-queues their undelivered
// envelopes in order, each carrying the payload Decode returns for it, as
// a live one does. A payload Decode fails on is an error. Call before
// starting the stage processes.
func (b *Bus) Restore(snap BusSnapshot) error {
	for _, es := range snap.Endpoints {
		ep := b.Endpoint(es.Name)
		ep.sent = es.Seq
		for _, q := range es.Queue {
			payload, err := b.Decode(es.Name, q.Data)
			if err != nil {
				return fmt.Errorf("msg: payload queued on %q: %w", es.Name, err)
			}
			ep.in.TryPut(Envelope{q.SentAt, payload}) // endpoint queues are unbounded
		}
	}
	return nil
}
