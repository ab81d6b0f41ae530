// Package msg is the messaging layer DYFLOW's stages communicate over — the
// stand-in for the paper's PyZMQ sockets and shared queues. Delivery latency
// can be configured (with jitter) so the Monitor server's out-of-order
// filtering has something to filter.
//
// The paper's services exchange JSON-formatted messages; this reproduction
// keeps the JSON wire format exactly at the checkpoint boundary (checkpoint
// snapshots encode queued envelopes as JSON, byte-identically to the old
// per-send encoding) but moves live delivery to a typed zero-copy path: the
// payload value crosses the simulated wire as-is and Payload[T] hands it to
// the receiver by type assertion — no reflect, no marshal/unmarshal round
// trip, no allocation. This removes the dominant cost of the simulation hot
// path (see DESIGN.md §14) without changing what a checkpoint holds.
//
// A payload is immutable once sent, so a sender may send one payload value
// in several envelopes; each receiver gets the same value. Both Monitor
// halves do: the client re-sends the batch it built for an unchanged disk
// scan, and the server re-sends the metrics it forwarded last when a batch
// forwards them again unchanged. What a re-sent payload cannot carry is
// the instant it was sent, so that travels on the envelope: SentAt is the
// Monitor server's ObservedAt, which its metric messages no longer hold.
package msg

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dyflow/internal/sim"
)

// Envelope is one delivered message.
type Envelope struct {
	// From and To are endpoint names.
	From, To string
	// Seq is the per-sender sequence number (1, 2, ...). Receivers use it
	// to detect stale or duplicated traffic.
	Seq uint64
	// SentAt is the virtual send time. Decision reads a forwarded metric's
	// ObservedAt from it.
	SentAt sim.Time
	// Data is the JSON-encoded payload. On the live path it is nil — the
	// payload travels typed — and is materialized only when the envelope
	// crosses the checkpoint boundary (Bus.Snapshot). Envelopes re-queued
	// by Bus.Restore carry Data only.
	Data []byte

	// payload is the live typed payload (zero-copy delivery). It is not
	// serialized; Snapshot converts it to Data.
	payload any
}

// Payload returns the envelope's payload as a T. A live payload is handed
// over as-is, zero-copy, by type assertion, so T must be the type the sender
// sent: a mismatch is an error. A restored envelope decodes its JSON Data
// into a fresh T.
func Payload[T any](e *Envelope) (T, error) {
	if v, ok := e.payload.(T); ok {
		return v, nil
	}
	return decodePayload[T](e)
}

// decodePayload is Payload's slow path: a restored envelope's JSON, or a
// mismatch. It is kept out of line so the T it decodes into escapes here,
// not on the typed path.
//
//go:noinline
func decodePayload[T any](e *Envelope) (T, error) {
	var v T
	if e.payload != nil {
		return v, fmt.Errorf("msg: payload from %q is %T, not %T", e.From, e.payload, v)
	}
	err := json.Unmarshal(e.Data, &v)
	return v, err
}

// encoded returns a copy of the envelope with Data materialized (the
// checkpoint representation). Byte determinism: encoding json.Marshal of
// the unchanged payload value here produces exactly the bytes the old
// send-time codec produced.
func (e Envelope) encoded() (Envelope, error) {
	if e.Data == nil && e.payload != nil {
		data, err := json.Marshal(e.payload)
		if err != nil {
			return e, fmt.Errorf("msg: marshal payload %s->%s seq %d: %w", e.From, e.To, e.Seq, err)
		}
		e.Data = data
	}
	e.payload = nil
	return e, nil
}

// Endpoint is a named mailbox on the bus.
type Endpoint struct {
	bus  *Bus
	name string
	in   *sim.Queue[Envelope]
	seq  uint64 // outgoing sequence counter
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

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

// Pending returns the number of queued messages.
func (e *Endpoint) Pending() int { return e.in.Len() }

// Send delivers payload to the named endpoint after the bus's configured
// latency. The payload travels typed and unserialized: neither the sender nor
// any receiver may mutate it after Send (a sender may send the same value
// again), and it must be JSON-marshalable by the time a
// checkpoint snapshot is taken (a non-marshalable payload is a stage bug
// and surfaces as a panic at Snapshot). Sending to an unknown endpoint
// returns an error.
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

// deliverCB runs in kernel context when a message's latency elapses.
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

// Bus connects endpoints with latency-modelled typed delivery.
type Bus struct {
	sim       *sim.Sim
	endpoints map[string]*Endpoint
	pool      []*delivery // recycled in-flight records
	// Latency returns the delivery delay for a message from -> to. The
	// default is zero. Jitter here is what produces out-of-order arrivals.
	Latency func(from, to string) time.Duration
	// OnDepth, if set, observes the destination queue depth after each
	// delivery (the flight recorder's queue-depth sampling hook).
	OnDepth func(to string, depth int)
}

// NewBus creates an empty bus.
func NewBus(s *sim.Sim) *Bus {
	return &Bus{sim: s, endpoints: make(map[string]*Endpoint)}
}

// UniformJitterLatency returns a latency function: base plus a uniformly
// random jitter in [0, jitter), drawn from the simulation's deterministic
// RNG.
func UniformJitterLatency(s *sim.Sim, base, jitter time.Duration) func(from, to string) time.Duration {
	return func(from, to string) time.Duration {
		d := base
		if jitter > 0 {
			d += time.Duration(s.Rand().Int63n(int64(jitter)))
		}
		return d
	}
}

// Endpoint creates (or returns) the endpoint with the given name.
func (b *Bus) Endpoint(name string) *Endpoint {
	if ep, ok := b.endpoints[name]; ok {
		return ep
	}
	ep := &Endpoint{bus: b, name: name, in: sim.NewQueue[Envelope](b.sim, 0)}
	b.endpoints[name] = ep
	return ep
}

func (b *Bus) send(from *Endpoint, to string, payload any) error {
	dst, ok := b.endpoints[to]
	if !ok {
		return fmt.Errorf("msg: no endpoint %q", to)
	}
	from.seq++
	var latency time.Duration
	if b.Latency != nil {
		latency = b.Latency(from.name, to)
	}
	var d *delivery
	if n := len(b.pool); n > 0 {
		d = b.pool[n-1]
		b.pool[n-1] = nil
		b.pool = b.pool[:n-1]
	} else {
		d = &delivery{bus: b}
	}
	d.dst = dst
	d.env = Envelope{
		From:    from.name,
		To:      to,
		Seq:     from.seq,
		SentAt:  b.sim.Now(),
		payload: payload,
	}
	b.sim.AfterCall(latency, deliverCB, d)
	return nil
}

// OrderFilter drops stale messages: per sender, only envelopes with a
// sequence number above the highest seen so far pass. This mirrors the
// Monitor server, which "filters the out of order messages from the
// client(s)".
type OrderFilter struct {
	last map[string]uint64
}

// NewOrderFilter creates an empty filter.
func NewOrderFilter() *OrderFilter { return &OrderFilter{last: make(map[string]uint64)} }

// Admit reports whether env is fresh, updating the high-water mark.
func (f *OrderFilter) Admit(env Envelope) bool {
	if env.Seq <= f.last[env.From] {
		return false
	}
	f.last[env.From] = env.Seq
	return true
}

// Reset forgets a sender's high-water mark (used when a monitor client is
// restarted and its sequence numbers start over).
func (f *OrderFilter) Reset(sender string) { delete(f.last, sender) }

// State returns the per-sender high-water marks (a copy) for
// checkpointing. Restoring them alongside the bus endpoint sequence
// counters keeps the filter consistent: restored filters with fresh
// (restarted-at-zero) senders would drop every new message.
func (f *OrderFilter) State() map[string]uint64 {
	out := make(map[string]uint64, len(f.last))
	for k, v := range f.last {
		out[k] = v
	}
	return out
}

// RestoreState replaces the filter's high-water marks.
func (f *OrderFilter) RestoreState(marks map[string]uint64) {
	f.last = make(map[string]uint64, len(marks))
	for k, v := range marks {
		f.last[k] = v
	}
}

// EndpointSnapshot is one endpoint's checkpointable state: its outgoing
// sequence counter and the envelopes delivered but not yet consumed.
type EndpointSnapshot struct {
	Name  string
	Seq   uint64
	Queue []Envelope
}

// BusSnapshot is the bus's checkpointable state, endpoints sorted by name.
type BusSnapshot struct {
	Endpoints []EndpointSnapshot
}

// Snapshot captures every endpoint's sequence counter and queued
// envelopes. Queued typed payloads are JSON-encoded here — the one place
// the wire format is materialized — producing byte-identical envelopes to
// the old per-send codec. A payload that cannot be marshaled is a stage
// bug and panics. In-flight deliveries (scheduled but not yet enqueued)
// are not captured; with zero bus latency none exist at an event-boundary
// instant, and with modeled latency a crash loses at most the messages on
// the wire — which the retry/repoll layers above already tolerate.
func (b *Bus) Snapshot() BusSnapshot {
	var snap BusSnapshot
	for name, ep := range b.endpoints {
		queue := ep.in.Items()
		for i := range queue {
			enc, err := queue[i].encoded()
			if err != nil {
				panic(err)
			}
			queue[i] = enc
		}
		snap.Endpoints = append(snap.Endpoints, EndpointSnapshot{
			Name:  name,
			Seq:   ep.seq,
			Queue: queue,
		})
	}
	sort.Slice(snap.Endpoints, func(i, j int) bool {
		return snap.Endpoints[i].Name < snap.Endpoints[j].Name
	})
	return snap
}

// Restore re-creates the snapshot's endpoints on this bus: sequence
// counters continue where they left off and undelivered envelopes are
// re-queued in order. Call before starting the stage processes.
func (b *Bus) Restore(snap BusSnapshot) {
	for _, es := range snap.Endpoints {
		ep := b.Endpoint(es.Name)
		ep.seq = es.Seq
		for _, env := range es.Queue {
			ep.in.TryPut(env) // endpoint queues are unbounded: always accepted
		}
	}
}
