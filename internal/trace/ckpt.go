package trace

import "dyflow/internal/obs"

// QueueState is one endpoint's checkpointed queue-depth accumulator.
type QueueState struct {
	Endpoint string `json:"endpoint"`
	Samples  int    `json:"samples"`
	Sum      int64  `json:"sum"`
	Max      int    `json:"max"`
}

// State is the recorder's checkpointable state: suggestion-lifecycle spans
// in creation order, stage counters, queue-depth accumulators, and the
// sensor/op keys whose latency histograms must be re-resolved on restore.
// Histogram contents themselves live in the attached metrics registry
// (shared storage) and survive a restore with the same registry; without a
// registry the distributions restart empty.
type State struct {
	Spans      []Span         `json:"spans,omitempty"`
	Counters   []CounterValue `json:"counters,omitempty"`
	Queues     []QueueState   `json:"queues,omitempty"`
	LagSensors []string       `json:"lag_sensors,omitempty"`
	OpKinds    []string       `json:"op_kinds,omitempty"`
}

// State exports the recorder for checkpointing.
func (r *Recorder) State() State {
	if r == nil {
		return State{}
	}
	st := State{Spans: r.Spans()}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		st.Counters = append(st.Counters, CounterValue{Name: name, Value: r.counters[name].v})
	}
	for _, ep := range sortedKeys(r.queues) {
		q := r.queues[ep]
		st.Queues = append(st.Queues, QueueState{Endpoint: ep, Samples: q.samples, Sum: q.sum, Max: q.max})
	}
	st.LagSensors = sortedKeys(r.sensorLags)
	st.OpKinds = sortedKeys(r.opLats)
	return st
}

// Restore replaces the recorder's state. Counters are set directly — not
// replayed through Inc — because the metrics registry (when shared with
// the pre-crash recorder, as in an in-process restore) already holds the
// mirrored dyflow_stage_events_total series; replaying would double-count.
// Their registry handles, and the queue-depth gauges, are re-resolved by
// name on each one's next sample, so a restore creates no series the
// recorder has not since written. Latency histograms are re-resolved by
// key so registry-backed distributions keep their samples.
func (r *Recorder) Restore(st State) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = make(map[string]*Span, len(st.Spans))
	r.order = r.order[:0]
	for _, sp := range st.Spans {
		sp := sp
		r.spans[sp.ID] = &sp
		r.order = append(r.order, sp.ID)
	}
	r.counters = make(map[string]*counterAcc, len(st.Counters))
	for _, c := range st.Counters {
		r.counters[c.Name] = &counterAcc{v: c.Value}
	}
	r.queues = make(map[string]*queueAcc, len(st.Queues))
	for _, q := range st.Queues {
		r.queues[q.Endpoint] = &queueAcc{samples: q.Samples, sum: q.Sum, max: q.Max}
	}
	r.sensorLags = make(map[string]*obs.Histogram, len(st.LagSensors))
	for _, id := range st.LagSensors {
		hist(r.sensorLags, r.lagVec, id)
	}
	r.opLats = make(map[string]*obs.Histogram, len(st.OpKinds))
	for _, k := range st.OpKinds {
		hist(r.opLats, r.opVec, k)
	}
}
