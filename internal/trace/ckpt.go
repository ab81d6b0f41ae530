package trace

import (
	"dyflow/internal/ckpt"
	"dyflow/internal/obs"
)

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
// Histogram contents themselves live in the recorder's metrics registry
// (shared storage) and survive a restore into a recorder built with the
// same registry; one built with a fresh registry restarts them empty.
type State struct {
	Spans      []SpanRecord   `json:"spans,omitempty"`
	Counters   []CounterValue `json:"counters,omitempty"`
	Queues     []QueueState   `json:"queues,omitempty"`
	LagSensors []string       `json:"lag_sensors,omitempty"`
	OpKinds    []string       `json:"op_kinds,omitempty"`
}

// State exports the recorder for checkpointing.
func (r *Recorder) State() State {
	st := State{Spans: ckpt.Map(r.Spans(), Span.Record)}
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
// key so registry-backed distributions keep their samples. Spans are
// found by Seq again, in whatever order the log holds them, so they are
// stamped as before. A record that is no span's is an error.
func (r *Recorder) Restore(st State) error {
	spans, err := ckpt.TryMap(st.Spans, SpanRecord.Live)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = spanLog{}
	for _, sp := range spans {
		r.spans.add(sp)
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
	return nil
}
