// Package stream models the ADIOS2 Sustainable Staging Transport (SST) the
// paper uses for in situ task coupling and for streaming TAU monitoring
// data. A Stream carries a sequence of timestep records from one producer
// to any number of dynamically attached readers, each with a bounded
// staging buffer.
//
// Two reader modes capture the two uses in the paper:
//
//   - Block: the producer blocks while the reader's buffer is full. This is
//     the coupling mode — an under-provisioned analysis task throttles the
//     simulation through exactly this backpressure (paper Figures 1, 8, 9).
//   - DropOldest: the producer never blocks; the oldest buffered record is
//     discarded instead. This is the monitoring mode — a slow monitor must
//     never slow down science.
package stream

import (
	"errors"
	"fmt"
	"sort"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// Step is one staged timestep record.
type Step struct {
	// Index is the producer's timestep number.
	Index int
	// Size is the staged payload size in bytes (informational).
	Size int64
	// Vars carries named numeric variables for sensors and analyses.
	Vars map[string]float64
	// Array carries one value per producer rank (e.g. TAU's per-process
	// loop times, or a staged output vector). Sensor preprocessing reduces
	// it before metric formulation.
	Array []float64
	// Produced is the virtual time the record was staged.
	Produced sim.Time
}

// Mode selects a reader's overflow behaviour.
type Mode int

const (
	// Block makes the producer wait while this reader's buffer is full.
	Block Mode = iota
	// DropOldest discards the reader's oldest buffered record on overflow.
	DropOldest
)

// ErrDetached is returned by reader operations after Close, and by writes
// on a closed stream.
var ErrDetached = errors.New("stream: detached")

// Reader is one attached consumer with a private bounded buffer.
type Reader struct {
	stream   *Stream
	id       int
	mode     Mode
	buf      *sim.Queue[Step]
	dropped  int
	received int
	closed   bool
}

// Get returns the next staged record, blocking the calling process while
// the buffer is empty. After the stream is closed and drained (or the
// reader detached), it returns ErrDetached.
func (r *Reader) Get(p *sim.Proc) (Step, error) {
	st, err := r.buf.Get(p)
	if err != nil {
		if errors.Is(err, sim.ErrClosed) {
			return Step{}, ErrDetached
		}
		return Step{}, err
	}
	r.received++
	r.stream.backlogChanged()
	return st, nil
}

// TryGet returns the next staged record without blocking.
func (r *Reader) TryGet() (Step, bool) {
	st, ok := r.buf.TryGet()
	if ok {
		r.stream.backlogChanged()
	}
	return st, ok
}

// Len returns the number of buffered records.
func (r *Reader) Len() int { return r.buf.Len() }

// Buffered returns a copy of the records currently buffered, in delivery
// order, without consuming them (checkpoint inspection).
func (r *Reader) Buffered() []Step { return r.buf.Items() }

// Dropped returns the number of records discarded in DropOldest mode.
func (r *Reader) Dropped() int { return r.dropped }

// Received returns the number of records delivered via Get.
func (r *Reader) Received() int { return r.received }

// Close detaches the reader: the producer stops delivering to (and stops
// blocking on) this reader. Pending Gets fail after the buffer drains.
func (r *Reader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	delete(r.stream.readers, r.id)
	r.stream.sortedOK = false
	r.stream.sorted = nil
	r.buf.Close()
}

// Stream is a named staging channel with fan-out delivery.
type Stream struct {
	sim      *sim.Sim
	name     string
	readers  map[int]*Reader
	nextID   int
	closed   bool
	produced int

	// sorted caches sortedReaders; invalidated on attach/detach so the
	// per-Put fan-out loop allocates nothing in steady state.
	sorted   []*Reader
	sortedOK bool

	// Per-stream metric handles, resolved by Registry.SetMetrics (nil and
	// inert otherwise).
	mProduced  *obs.Counter
	mDropped   *obs.Counter
	mEOFAttach *obs.Counter
	mBacklog   *obs.Gauge
}

// backlogChanged re-publishes the total records buffered across attached
// readers — the staging depth a policy watches for coupling backpressure.
func (st *Stream) backlogChanged() {
	if st.mBacklog == nil {
		return
	}
	total := 0
	for _, r := range st.readers {
		total += r.buf.Len()
	}
	st.mBacklog.Set(float64(total))
}

// newStream is internal; obtain streams from a Registry.
func newStream(s *sim.Sim, name string) *Stream {
	return &Stream{sim: s, name: name, readers: make(map[int]*Reader)}
}

// Name returns the stream name.
func (st *Stream) Name() string { return st.name }

// Produced returns the number of records written so far.
func (st *Stream) Produced() int { return st.produced }

// Readers returns the number of attached readers.
func (st *Stream) Readers() int { return len(st.readers) }

// Closed reports whether the producer closed the stream.
func (st *Stream) Closed() bool { return st.closed }

// Attach connects a new reader with the given buffer capacity (in steps;
// must be positive for Block mode so backpressure is well-defined) and
// overflow mode. Readers attach and detach freely at runtime — the paper's
// Monitor stage resets these connections whenever tasks restart.
func (st *Stream) Attach(capacity int, mode Mode) *Reader {
	if capacity <= 0 {
		capacity = 1
	}
	r := &Reader{
		stream: st,
		id:     st.nextID,
		mode:   mode,
		buf:    sim.NewQueue[Step](st.sim, capacity),
	}
	st.nextID++
	st.readers[r.id] = r
	st.sortedOK = false
	st.sorted = nil
	if st.closed {
		// The producer already finished: the reader sees immediate EOF
		// instead of blocking forever on data that will never come (the
		// restarted-consumer recovery path).
		r.buf.Close()
		st.mEOFAttach.Inc()
	}
	return r
}

// sortedReaders returns attached readers in attach order. The result is
// cached until the reader topology changes; a fresh slice is built on each
// rebuild so callers iterating a stale snapshot (e.g. a Put blocked while a
// reader detaches) stay safe.
func (st *Stream) sortedReaders() []*Reader {
	if st.sortedOK {
		return st.sorted
	}
	ids := make([]int, 0, len(st.readers))
	for id := range st.readers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Reader, 0, len(ids))
	for _, id := range ids {
		out = append(out, st.readers[id])
	}
	st.sorted = out
	st.sortedOK = true
	return out
}

// Put stages one record to every attached reader. For Block-mode readers
// the calling process waits until buffer space is available (SST writer
// semantics: the slowest coupled consumer gates the producer). For
// DropOldest readers the oldest buffered record is discarded on overflow.
// Put returns the interrupt/stop error delivered while blocked, or
// ErrDetached if the stream was closed.
func (st *Stream) Put(p *sim.Proc, step Step) error {
	if st.closed {
		return ErrDetached
	}
	step.Produced = st.sim.Now()
	st.produced++
	st.mProduced.Inc()
	for _, r := range st.sortedReaders() {
		switch r.mode {
		case Block:
			if err := r.buf.Put(p, step); err != nil {
				if errors.Is(err, sim.ErrClosed) {
					continue // reader detached while we were blocked
				}
				if !errors.Is(err, sim.ErrStopped) { // sim.Stop: publish nothing
					st.backlogChanged()
				}
				return err
			}
		case DropOldest:
			for !r.buf.TryPut(step) {
				if r.closed {
					break
				}
				if _, ok := r.buf.TryGet(); ok {
					r.dropped++
					st.mDropped.Inc()
				} else {
					break
				}
			}
		}
	}
	st.backlogChanged()
	return nil
}

// Close marks the end of the stream. Attached readers drain their buffers
// and then see ErrDetached. The producer calls this when its task finishes
// or is terminated.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	for _, r := range st.sortedReaders() {
		r.buf.Close()
	}
}

// reopen resets a closed stream for a new producer incarnation (task
// restart). Existing readers remain detached; new readers attach fresh.
func (st *Stream) reopen() {
	st.closed = false
	st.readers = make(map[int]*Reader)
	st.sortedOK = false
	st.sorted = nil
}

// Registry names streams so tasks and sensors can rendezvous on strings
// like "gs.out" or "tau.Isosurface".
type Registry struct {
	sim     *sim.Sim
	streams map[string]*Stream

	mProduced  *obs.CounterVec
	mDropped   *obs.CounterVec
	mEOFAttach *obs.CounterVec
	mBacklog   *obs.GaugeVec
}

// NewRegistry creates an empty stream registry.
func NewRegistry(s *sim.Sim) *Registry {
	return &Registry{sim: s, streams: make(map[string]*Stream)}
}

// SetMetrics attaches a metrics registry: every stream (existing and
// future) publishes produced/dropped/EOF-attach counters and a backlog
// gauge labeled by stream name.
func (r *Registry) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.mProduced = reg.Counter("dyflow_stream_produced_total", "Records staged by the producer.", "stream")
	r.mDropped = reg.Counter("dyflow_stream_dropped_total", "Records discarded by DropOldest readers.", "stream")
	r.mEOFAttach = reg.Counter("dyflow_stream_eof_attaches_total",
		"Reader attaches to an already-closed stream (restarted-consumer recovery).", "stream")
	r.mBacklog = reg.Gauge("dyflow_stream_backlog_records", "Records buffered across attached readers.", "stream")
	for _, st := range r.streams {
		r.instrument(st)
	}
}

// instrument resolves a stream's per-name metric handles.
func (r *Registry) instrument(st *Stream) {
	if r.mProduced == nil {
		return
	}
	st.mProduced = r.mProduced.With(st.name)
	st.mDropped = r.mDropped.With(st.name)
	st.mEOFAttach = r.mEOFAttach.With(st.name)
	st.mBacklog = r.mBacklog.With(st.name)
}

// Open returns the stream with the given name, creating it if necessary.
// If the stream exists but was closed by a previous producer incarnation,
// it is reopened empty (the restart semantics of SST connections).
func (r *Registry) Open(name string) *Stream {
	st, ok := r.streams[name]
	if !ok {
		st = newStream(r.sim, name)
		r.instrument(st)
		r.streams[name] = st
		return st
	}
	if st.closed {
		st.reopen()
	}
	return st
}

// OpenRead returns the stream for a consumer, creating it if necessary but
// — unlike Open — never reopening a closed one: only a new PRODUCER
// incarnation resets the stream. A consumer restarted after its producer
// completed must observe the close (and finish immediately), not resurrect
// the stream and hang waiting for data that will never come.
func (r *Registry) OpenRead(name string) *Stream {
	st, ok := r.streams[name]
	if !ok {
		st = newStream(r.sim, name)
		r.instrument(st)
		r.streams[name] = st
	}
	return st
}

// Lookup returns the stream with the given name, or nil. Unlike Open it
// never creates or reopens.
func (r *Registry) Lookup(name string) *Stream { return r.streams[name] }

// Names returns all registered stream names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.streams))
	for n := range r.streams {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String implements fmt.Stringer for debugging.
func (st *Stream) String() string {
	return fmt.Sprintf("stream(%s, %d readers, %d produced)", st.name, len(st.readers), st.produced)
}
