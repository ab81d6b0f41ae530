// Package trace is DYFLOW's flight recorder: a low-overhead observability
// subsystem threaded through all four stages (Monitor, Decision,
// Arbitration, Actuation). It exists to make the paper's §4.6 cost
// analysis — the decomposition of response time into per-stage lags —
// measurable end to end instead of being scattered across per-stage
// counters.
//
// The unit of correlation is the suggestion lifecycle Span: Decision
// numbers its suggestions 1, 2, 3, … as policies fire, and every later
// stage stamps its timestamp onto the span of the suggestion's number, its
// Seq (ObservedAt and GeneratedAt ride in on the triggering metric). A
// span's ID, "workflow/policy#seq", is formatted only when it is read or
// encoded. A completed span therefore decomposes the full
// event-to-actuation path:
//
//	GeneratedAt  — the underlying data was produced by the task
//	ObservedAt   — the Monitor server forwarded the metric to Decision
//	DecidedAt    — the policy fired and the suggestion was emitted
//	ReceivedAt   — the suggestion batch reached Arbitration (post-gather)
//	PlannedAt    — the plan was finalized
//	ExecutedAt   — Actuation finished applying the plan
//
// Alongside spans the recorder collects per-stage counters (metrics
// forwarded/re-polled, evaluations, suggestions, guard discards,
// empty-plan rounds, actuation ops), the log of executed actuation
// operations with their latency, and bus queue-depth samples.
//
// The recorder publishes into the metrics registry it is built with, and
// every stage is built with the recorder, so there is no untraced stage.
// A world builds one recorder beside its registry and hands it to every
// orchestrator it builds, a successor restored after a kill included, so
// the recorder, like the registry, outlives each of them; no checkpoint
// carries it.
package trace

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
)

// Span is one suggestion's lifecycle across the four stages. Zero
// timestamps mean the span never reached that stage; Dropped names the
// reason when Arbitration discarded it. Its encoded form is SpanRecord.
type Span struct {
	// Seq is the number Decision gave the suggestion; the recorder finds
	// the span by it.
	Seq      int
	Workflow string
	Policy   string
	Action   string
	Sensor   string

	GeneratedAt sim.Time
	ObservedAt  sim.Time
	DecidedAt   sim.Time
	ReceivedAt  sim.Time
	PlannedAt   sim.Time
	ExecutedAt  sim.Time

	// Dropped is the discard reason ("warmup", "settle", "stale",
	// "empty-plan") when the suggestion never reached actuation.
	Dropped string
}

// ID returns the span's ID, SpanID(Workflow, Policy, Seq).
func (sp Span) ID() string { return SpanID(sp.Workflow, sp.Policy, sp.Seq) }

// SpanID formats the ID of suggestion seq of a workflow's policy,
// "workflow/policy#seq"; seq 0 numbers no suggestion and has the empty
// ID.
func SpanID(workflow, policy string, seq int) string {
	if seq == 0 {
		return ""
	}
	return workflow + "/" + policy + "#" + strconv.Itoa(seq)
}

// ParseSeq returns the suggestion number an ID ends in: the decimal after
// its last '#', written as SpanID writes it (positive, no sign, no leading
// zero). It returns 0 for an ID that ends in none.
func ParseSeq(id string) int {
	i := strings.LastIndexByte(id, '#')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 1 || strconv.Itoa(n) != id[i+1:] {
		return 0
	}
	return n
}

// SpanRecord is a span as it is encoded: on the fleet wire, in a run's
// event stream and in the JSON report. It carries the span's ID in place
// of its number. The coordinator relays a worker's records as they came,
// so no record is turned back into a span.
type SpanRecord struct {
	ID       string `json:"id"`
	Workflow string `json:"workflow"`
	Policy   string `json:"policy"`
	Action   string `json:"action"`
	Sensor   string `json:"sensor,omitempty"`

	GeneratedAt sim.Time `json:"generated_at"`
	ObservedAt  sim.Time `json:"observed_at"`
	DecidedAt   sim.Time `json:"decided_at"`
	ReceivedAt  sim.Time `json:"received_at,omitempty"`
	PlannedAt   sim.Time `json:"planned_at,omitempty"`
	ExecutedAt  sim.Time `json:"executed_at,omitempty"`

	Dropped string `json:"dropped,omitempty"`
}

// Record returns the span's record.
func (sp Span) Record() SpanRecord {
	return SpanRecord{sp.ID(), sp.Workflow, sp.Policy, sp.Action, sp.Sensor,
		sp.GeneratedAt, sp.ObservedAt, sp.DecidedAt, sp.ReceivedAt, sp.PlannedAt, sp.ExecutedAt, sp.Dropped}
}

// Complete reports whether the span traversed every stage.
func (sp Span) Complete() bool { return sp.ExecutedAt > 0 }

// Monotone reports whether the stamped timestamps are non-decreasing in
// stage order (unstamped stages are skipped).
func (sp Span) Monotone() bool {
	prev := sim.Time(0)
	for _, t := range []sim.Time{sp.GeneratedAt, sp.ObservedAt, sp.DecidedAt, sp.ReceivedAt, sp.PlannedAt, sp.ExecutedAt} {
		if t == 0 {
			continue
		}
		if t < prev {
			return false
		}
		prev = t
	}
	return true
}

// queueAcc accumulates depth samples for one bus endpoint. g is the
// endpoint's dyflow_bus_queue_depth gauge, resolved on its first sample.
type queueAcc struct {
	samples int
	sum     int64
	max     int
	g       *obs.Gauge
}

// counterAcc is one stage counter. v is added to and read atomically; c
// is its dyflow_stage_events_total series, resolved under the recorder's
// lock on its first positive increment: a counter only ever incremented by
// zero has none.
type counterAcc struct {
	v atomic.Int64
	c *obs.Counter
}

// Op is one executed actuation operation: its kind ("stop", "start"),
// the task it acted on, the tries it took (1 = applied first try; more
// are transient-failure retries), its error if it failed, and when it ran.
// The stop/start split is what shows ~97% of response time being
// graceful-termination wait (§4.6).
type Op struct {
	Kind      string
	Workflow  string
	Task      string
	Attempts  int
	Err       string
	StartedAt sim.Time
	EndedAt   sim.Time
}

// Recorder is the flight recorder shared by the stages of every
// orchestrator a world builds. The simulation substrate runs processes
// one at a time, but `dyflow-exp serve` reads the recorder from HTTP
// goroutines while a run is in flight, so all state is mutex-guarded but
// the stage counters' values, which are atomic. Latency distributions are stored
// in bounded obs.Histogram buckets rather than unbounded sample slices:
// those histograms ARE the registry's labeled series (shared storage, no
// double counting), and counters and queue depths mirror into registry
// families.
type Recorder struct {
	mu sync.Mutex

	spans spanLog

	// counters and queues keep each name's registry handle beside its
	// value, so a queue-depth sample takes one lock and one map lookup; a
	// StageCounter holds its entry, so an Add looks nothing up.
	counters map[string]*counterAcc

	sensorLags map[string]*obs.Histogram // sensor ID -> detection-lag histogram (seconds)
	opLats     map[string]*obs.Histogram // op kind -> execution-latency histogram (seconds)
	queues     map[string]*queueAcc      // endpoint -> depth accumulator
	ops        []Op                      // executed actuation operations, in execution order

	reg      *obs.Registry
	events   *obs.CounterVec   // dyflow_stage_events_total{event}
	lagVec   *obs.HistogramVec // dyflow_sensor_lag_seconds{sensor}
	opVec    *obs.HistogramVec // dyflow_actuation_op_seconds{op}
	queueVec *obs.GaugeVec     // dyflow_bus_queue_depth{endpoint}

	onComplete func(Span) // invoked (without r.mu held) when a span completes
}

// New creates an empty recorder publishing into reg: stage counters
// mirror into dyflow_stage_events_total{event}, sensor lags and op
// latencies are stored in the registry's dyflow_sensor_lag_seconds{sensor}
// / dyflow_actuation_op_seconds{op} histogram series, and queue depths set
// dyflow_bus_queue_depth{endpoint}.
func New(reg *obs.Registry) *Recorder {
	return &Recorder{
		counters:   make(map[string]*counterAcc),
		sensorLags: make(map[string]*obs.Histogram),
		opLats:     make(map[string]*obs.Histogram),
		queues:     make(map[string]*queueAcc),
		reg:        reg,
		events: reg.Counter("dyflow_stage_events_total",
			"Flight-recorder stage counter events by name.", "event"),
		lagVec: reg.Histogram("dyflow_sensor_lag_seconds",
			"Sensor detection lag (data generation to metric forwarded).", nil, "sensor"),
		opVec: reg.Histogram("dyflow_actuation_op_seconds",
			"Actuation operation execution latency.", nil, "op"),
		queueVec: reg.Gauge("dyflow_bus_queue_depth",
			"Bus queue depth sampled at enqueue.", "endpoint"),
	}
}

// Registry returns the metrics registry the recorder publishes into.
func (r *Recorder) Registry() *obs.Registry { return r.reg }

// StageCounter is one named stage counter, resolved once by the stage
// that counts it, which is the only one to use the handle. The counter's
// entry appears at its first Add, and its dyflow_stage_events_total series
// at its first positive one; those two take the recorder's lock, and every
// other Add is two atomic adds.
type StageCounter struct {
	r    *Recorder
	name string
	a    *counterAcc  // nil until the first Add
	c    *obs.Counter // nil until the first positive Add
}

// StageCounter returns the handle of the named stage counter. Handles of
// one name share its value.
func (r *Recorder) StageCounter(name string) *StageCounter {
	return &StageCounter{r: r, name: name}
}

// Add adds delta to the counter.
func (c *StageCounter) Add(delta int64) {
	if c.a == nil || delta > 0 && c.c == nil {
		c.resolve(delta > 0)
	}
	c.a.v.Add(delta)
	if delta > 0 {
		c.c.Add(delta)
	}
}

// resolve finds or creates the counter's entry and, when series is set,
// the entry's dyflow_stage_events_total series, both shared with the
// name's other handles.
func (c *StageCounter) resolve(series bool) {
	r := c.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.a == nil {
		if c.a = r.counters[c.name]; c.a == nil {
			c.a = &counterAcc{}
			r.counters[c.name] = c.a
		}
	}
	if series && c.a.c == nil {
		c.a.c = r.events.With(c.name)
	}
	c.c = c.a.c
}

// Counter returns a named counter's value (0 if never incremented).
func (r *Recorder) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.counters[name]; a != nil {
		return a.v.Load()
	}
	return 0
}

// spanLog holds spans in creation order as compact records, in chunks
// that are never reallocated — the first holds spanChunkMin records,
// each next one twice the last, up to spanChunkMax — so recording a span
// never copies the ones already held.
//
// A record keeps a span's number and timestamps; the strings a Span
// repeats in every span are interned in the log: the rule (workflow,
// policy, action, sensor) once per distinct tuple, the drop reason once
// per distinct reason, and a record holds their indices. A record is
// therefore 64 bytes against a Span's 136, and holds no pointer, so a
// chunk of a power-of-two length fills its size class exactly and the
// garbage collector never scans it. Readers get Spans built from a
// record (expand).
//
// A span is found by its Seq. Decision numbers its suggestions
// consecutively, so span i is normally the one numbered i past span 0 and
// find reads it with one index. A span that is not where that rule puts
// it (opened out of order or after a gap) is indexed in moved instead,
// which stays nil while spans arrive in order.
type spanLog struct {
	chunks [][]spanRec
	n      int
	moved  map[int]int // Seq → index, for spans not at Seq − span 0's Seq

	rules   []spanRule          // interned rules, in first-use order
	ruleIdx map[spanRule]uint32 // rule → its index in rules
	reasons []string            // interned drop reasons, in first-use order
}

// spanRule is what names a span's suggestion beside its number.
type spanRule struct {
	workflow, policy, action, sensor string
}

// spanRec is a span as the log stores it.
type spanRec struct {
	seq int

	generatedAt sim.Time
	observedAt  sim.Time
	decidedAt   sim.Time
	receivedAt  sim.Time
	plannedAt   sim.Time
	executedAt  sim.Time

	rule    uint32 // index into the log's rules
	dropped uint32 // 0 when not dropped, else 1 + index into the log's reasons
}

const (
	spanChunkMin       = 8
	spanChunkDoublings = 3
	spanChunkMax       = spanChunkMin << spanChunkDoublings
	// spanChunkHead is how many spans the chunks before the first
	// spanChunkMax-sized one hold.
	spanChunkHead = spanChunkMax - spanChunkMin
)

// locate returns the chunk holding span i and its offset there.
func locate(i int) (chunk, off int) {
	if i >= spanChunkHead {
		i -= spanChunkHead
		return spanChunkDoublings + i/spanChunkMax, i % spanChunkMax
	}
	chunk = bits.Len(uint(i/spanChunkMin+1)) - 1
	return chunk, i - spanChunkMin*(1<<chunk-1)
}

// at returns the record of span i, which must be held.
func (l *spanLog) at(i int) *spanRec {
	c, off := locate(i)
	return &l.chunks[c][off]
}

// add appends the record of a span whose Seq is positive and not yet in
// the log.
func (l *spanLog) add(rec spanRec) {
	if l.n > 0 && rec.seq-l.at(0).seq != l.n {
		if l.moved == nil {
			l.moved = make(map[int]int)
		}
		l.moved[rec.seq] = l.n
	}
	c, off := locate(l.n)
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]spanRec, min(spanChunkMin<<c, spanChunkMax)))
	}
	l.chunks[c][off] = rec
	l.n++
}

// find returns the record of suggestion seq's span, or nil.
func (l *spanLog) find(seq int) *spanRec {
	if seq < 1 || l.n == 0 {
		return nil
	}
	if i := seq - l.at(0).seq; i >= 0 && i < l.n {
		if rec := l.at(i); rec.seq == seq {
			return rec
		}
	}
	if i, ok := l.moved[seq]; ok {
		return l.at(i)
	}
	return nil
}

// intern returns rule's index in l.rules, adding the rule on its first
// use.
func (l *spanLog) intern(rule spanRule) uint32 {
	if i, ok := l.ruleIdx[rule]; ok {
		return i
	}
	if l.ruleIdx == nil {
		l.ruleIdx = make(map[spanRule]uint32)
	}
	i := uint32(len(l.rules))
	l.rules = append(l.rules, rule)
	l.ruleIdx[rule] = i
	return i
}

// reason returns a drop reason's value for spanRec.dropped, adding the
// reason on its first use. The reasons are Arbitration's few constants,
// so a scan finds one.
func (l *spanLog) reason(s string) uint32 {
	if s == "" {
		return 0
	}
	for i, r := range l.reasons {
		if r == s {
			return uint32(i + 1)
		}
	}
	l.reasons = append(l.reasons, s)
	return uint32(len(l.reasons))
}

// expand returns the Span a record stores.
func (l *spanLog) expand(rec *spanRec) Span {
	rule := &l.rules[rec.rule]
	sp := Span{
		Seq:         rec.seq,
		Workflow:    rule.workflow,
		Policy:      rule.policy,
		Action:      rule.action,
		Sensor:      rule.sensor,
		GeneratedAt: rec.generatedAt,
		ObservedAt:  rec.observedAt,
		DecidedAt:   rec.decidedAt,
		ReceivedAt:  rec.receivedAt,
		PlannedAt:   rec.plannedAt,
		ExecutedAt:  rec.executedAt,
	}
	if rec.dropped > 0 {
		sp.Dropped = l.reasons[rec.dropped-1]
	}
	return sp
}

// Suggested opens the span of suggestion seq: Decision emitted it. A seq
// below 1, or one that already has a span, opens none.
func (r *Recorder) Suggested(seq int, workflow, policy, action, sensorID string, generatedAt, observedAt, decidedAt sim.Time) {
	if seq < 1 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans.find(seq) != nil {
		return
	}
	r.spans.add(spanRec{
		seq:         seq,
		rule:        r.spans.intern(spanRule{workflow, policy, action, sensorID}),
		generatedAt: generatedAt,
		observedAt:  observedAt,
		decidedAt:   decidedAt,
	})
}

// Received stamps the span's arrival at Arbitration.
func (r *Recorder) Received(seq int, at sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.spans.find(seq); rec != nil {
		rec.receivedAt = at
	}
}

// Planned stamps the plan-finalization instant.
func (r *Recorder) Planned(seq int, at sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.spans.find(seq); rec != nil {
		rec.plannedAt = at
	}
}

// SetOnComplete registers a hook fired with a copy of each span the
// moment its ExecutedAt is stamped — the full lifecycle is then known.
// The hook runs on the stamping goroutine with the recorder unlocked, so
// it may call back into the recorder; it must not block for long (it sits
// on the actuation path). The campaign service uses it to forward
// completed spans into a run's live event stream.
func (r *Recorder) SetOnComplete(fn func(Span)) {
	r.mu.Lock()
	r.onComplete = fn
	r.mu.Unlock()
}

// Executed stamps the actuation-complete instant.
func (r *Recorder) Executed(seq int, at sim.Time) {
	r.mu.Lock()
	var done Span
	fn := r.onComplete
	if rec := r.spans.find(seq); rec != nil {
		rec.executedAt = at
		done = r.spans.expand(rec)
	} else {
		fn = nil
	}
	r.mu.Unlock()
	if fn != nil {
		fn(done)
	}
}

// Drop marks the span discarded at Arbitration with a reason.
func (r *Recorder) Drop(seq int, reason string, at sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.spans.find(seq); rec != nil {
		rec.dropped = r.spans.reason(reason)
		if rec.receivedAt == 0 {
			rec.receivedAt = at
		}
	}
}

// hist resolves the histogram for one key in a distribution map from its
// registry family, creating the series on first use. Caller holds r.mu.
func hist(m map[string]*obs.Histogram, vec *obs.HistogramVec, key string) *obs.Histogram {
	h, ok := m[key]
	if !ok {
		h = vec.With(key)
		m[key] = h
	}
	return h
}

// SensorLag records one detection-lag sample (data generation to metric
// forwarded) for a sensor.
func (r *Recorder) SensorLag(sensorID string, lag sim.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hist(r.sensorLags, r.lagVec, sensorID).Observe(lag.Seconds())
}

// SensorLagMean returns the mean of a sensor's recorded detection lags (0
// with no samples) — the §4.6 cost table's lag.
func (r *Recorder) SensorLagMean(sensorID string) sim.Time {
	r.mu.Lock()
	h, ok := r.sensorLags[sensorID]
	r.mu.Unlock()
	if !ok {
		return 0 // no detection yet
	}
	return secondsToDuration(h.Mean())
}

// OpExecuted records one executed actuation operation: it joins the op
// log, and its latency joins its kind's histogram.
func (r *Recorder) OpExecuted(op Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
	hist(r.opLats, r.opVec, op.Kind).Observe((op.EndedAt - op.StartedAt).Seconds())
}

// VisitOps calls fn with every executed actuation operation, in execution
// order, under the recorder's lock: fn reads the op in place, so it must
// not keep or change it, nor call the recorder.
func (r *Recorder) VisitOps(fn func(op *Op)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.ops {
		fn(&r.ops[i])
	}
}

// OpShare returns the fraction of all actuation execution time spent in
// ops of the kind (0 before any op took time) — for "stop", the §4.6
// graceful-termination share.
func (r *Recorder) OpShare(kind string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var in, total sim.Time
	for _, op := range r.ops {
		d := op.EndedAt - op.StartedAt
		total += d
		if op.Kind == kind {
			in += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// QueueDepth records one bus queue-depth sample for an endpoint. Negative
// depths (a miscounting producer) clamp to zero and the running sum
// saturates instead of wrapping, so MeanDepth stays a depth.
func (r *Recorder) QueueDepth(endpoint string, depth int) {
	if depth < 0 {
		depth = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queues[endpoint]
	if !ok {
		q = &queueAcc{}
		r.queues[endpoint] = q
	}
	q.samples++
	if q.sum > math.MaxInt64-int64(depth) {
		q.sum = math.MaxInt64
	} else {
		q.sum += int64(depth)
	}
	if depth > q.max {
		q.max = depth
	}
	if q.g == nil {
		q.g = r.queueVec.With(endpoint)
	}
	q.g.Set(float64(depth))
}

// Spans returns a copy of every span, in creation order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.spans.n)
	for i := range out {
		out[i] = r.spans.expand(r.spans.at(i))
	}
	return out
}

// VisitSpans calls fn with every span, in creation order, under the
// recorder's lock. Each call gets one Span the visit reuses for the next,
// so fn must not keep or change it, nor call the recorder.
func (r *Recorder) VisitSpans(fn func(sp *Span)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sp Span // one for the whole visit: fn's argument escapes
	for i := 0; i < r.spans.n; i++ {
		sp = r.spans.expand(r.spans.at(i))
		fn(&sp)
	}
}

// LatencyStat summarizes one latency distribution.
type LatencyStat struct {
	Label string        `json:"label"`
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// StageLatency is one (policy, stage) latency summary of the report.
type StageLatency struct {
	Policy string `json:"policy"`
	Stage  string `json:"stage"`
	LatencyStat
}

// CounterValue is one named counter of the report.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// QueueStat summarizes one endpoint's queue-depth samples.
type QueueStat struct {
	Endpoint  string  `json:"endpoint"`
	Samples   int     `json:"samples"`
	MeanDepth float64 `json:"mean_depth"`
	MaxDepth  int     `json:"max_depth"`
}

// Report is the rendered flight-recorder state: the §4.6-style per-stage
// latency breakdown plus counters, sensor lags, op latencies, and queue
// depths. It is JSON-marshalable for export.
type Report struct {
	Spans      []SpanRecord   `json:"spans"`
	Stages     []StageLatency `json:"stages"`
	SensorLags []LatencyStat  `json:"sensor_lags"`
	Ops        []LatencyStat  `json:"ops"`
	Counters   []CounterValue `json:"counters"`
	Queues     []QueueStat    `json:"queues"`
}

// stageNames, in pipeline order. Each maps a completed span to one lag.
var stageNames = []string{
	"generate→observe",
	"observe→decide",
	"decide→receive",
	"receive→plan",
	"plan→execute",
	"total",
}

func stageLag(sp Span, stage string) sim.Time {
	switch stage {
	case "generate→observe":
		return sp.ObservedAt - sp.GeneratedAt
	case "observe→decide":
		return sp.DecidedAt - sp.ObservedAt
	case "decide→receive":
		return sp.ReceivedAt - sp.DecidedAt
	case "receive→plan":
		return sp.PlannedAt - sp.ReceivedAt
	case "plan→execute":
		return sp.ExecutedAt - sp.PlannedAt
	case "total":
		return sp.ExecutedAt - sp.GeneratedAt
	}
	return 0
}

func summarize(label string, samples []sim.Time) LatencyStat {
	st := LatencyStat{Label: label, Count: len(samples)}
	if len(samples) == 0 {
		return st
	}
	sorted := append([]sim.Time(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Time
	for _, v := range sorted {
		sum += v
	}
	st.Mean = sum / sim.Time(len(sorted))
	st.P50 = stats.NearestRank(sorted, 0.50)
	st.P99 = stats.NearestRank(sorted, 0.99)
	st.Max = sorted[len(sorted)-1]
	return st
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// summarizeHist renders a LatencyStat from a bounded histogram: Count,
// Mean, and Max are exact; P50/P99 are nearest-rank at bucket resolution
// (the upper bound of the bucket holding the rank).
func summarizeHist(label string, h *obs.Histogram) LatencyStat {
	st := LatencyStat{Label: label, Count: int(h.Count())}
	if st.Count == 0 {
		return st
	}
	st.Mean = secondsToDuration(h.Mean())
	st.P50 = secondsToDuration(h.Quantile(0.50))
	st.P99 = secondsToDuration(h.Quantile(0.99))
	st.Max = secondsToDuration(h.Max())
	return st
}

// Report builds the current report. All groupings iterate in sorted order
// so equal runs render byte-identical reports.
func (r *Recorder) Report() *Report {
	spans := r.Spans()
	rep := &Report{Spans: ckpt.Map(spans, Span.Record)}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Per-policy per-stage latencies over completed spans.
	byPolicy := map[string][]Span{}
	for _, sp := range spans {
		if sp.Complete() {
			byPolicy[sp.Policy] = append(byPolicy[sp.Policy], sp)
		}
	}
	policies := make([]string, 0, len(byPolicy))
	for p := range byPolicy {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		for _, stage := range stageNames {
			var samples []sim.Time
			for _, sp := range byPolicy[p] {
				samples = append(samples, stageLag(sp, stage))
			}
			rep.Stages = append(rep.Stages, StageLatency{
				Policy:      p,
				Stage:       stage,
				LatencyStat: summarize(p+"/"+stage, samples),
			})
		}
	}

	for _, id := range sortedKeys(r.sensorLags) {
		rep.SensorLags = append(rep.SensorLags, summarizeHist(id, r.sensorLags[id]))
	}
	for _, k := range sortedKeys(r.opLats) {
		rep.Ops = append(rep.Ops, summarizeHist(k, r.opLats[k]))
	}
	for _, name := range sortedKeys(r.counters) {
		rep.Counters = append(rep.Counters, CounterValue{Name: name, Value: r.counters[name].v.Load()})
	}
	for _, ep := range sortedKeys(r.queues) {
		q := r.queues[ep]
		rep.Queues = append(rep.Queues, QueueStat{
			Endpoint:  ep,
			Samples:   q.samples,
			MeanDepth: float64(q.sum) / float64(q.samples),
			MaxDepth:  q.max,
		})
	}
	return rep
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fmtLat renders a latency with adaptive precision: sub-millisecond values
// round to the microsecond (whole-ms rounding showed every fast op as
// "0s"), everything else to the millisecond.
func fmtLat(d time.Duration) string {
	if d > -time.Millisecond && d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(time.Millisecond).String()
}

// Write renders the report as aligned text tables — the reproduction's
// §4.6 per-stage latency breakdown.
func (rep *Report) Write(w io.Writer) {
	table := func(title string, header []string, rows [][]string) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "== %s ==\n", title)
		widths := make([]int, len(header))
		for i, h := range header {
			widths[i] = len(h)
		}
		for _, row := range rows {
			for i, c := range row {
				if len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				fmt.Fprintf(w, "  %-*s", widths[i], c)
			}
			fmt.Fprintln(w)
		}
		line(header)
		dashes := make([]string, len(header))
		for i := range dashes {
			dashes[i] = strings.Repeat("-", widths[i])
		}
		line(dashes)
		for _, row := range rows {
			line(row)
		}
		fmt.Fprintln(w)
	}

	latRows := func(stats []LatencyStat, first func(LatencyStat) []string) [][]string {
		var rows [][]string
		for _, st := range stats {
			row := first(st)
			rows = append(rows, append(row,
				fmt.Sprint(st.Count), fmtLat(st.Mean), fmtLat(st.P50), fmtLat(st.P99), fmtLat(st.Max)))
		}
		return rows
	}

	var stageRows [][]string
	for _, st := range rep.Stages {
		stageRows = append(stageRows, []string{
			st.Policy, st.Stage,
			fmt.Sprint(st.Count), fmtLat(st.Mean), fmtLat(st.P50), fmtLat(st.P99), fmtLat(st.Max)})
	}
	table("Per-stage latency by policy (§4.6 decomposition)",
		[]string{"policy", "stage", "n", "mean", "p50", "p99", "max"}, stageRows)

	table("Sensor detection lag (generation → forwarded)",
		[]string{"sensor", "n", "mean", "p50", "p99", "max"},
		latRows(rep.SensorLags, func(st LatencyStat) []string { return []string{st.Label} }))

	table("Actuation operation latency",
		[]string{"op", "n", "mean", "p50", "p99", "max"},
		latRows(rep.Ops, func(st LatencyStat) []string { return []string{st.Label} }))

	var counterRows [][]string
	for _, c := range rep.Counters {
		counterRows = append(counterRows, []string{c.Name, fmt.Sprint(c.Value)})
	}
	table("Stage counters", []string{"counter", "value"}, counterRows)

	var queueRows [][]string
	for _, q := range rep.Queues {
		queueRows = append(queueRows, []string{
			q.Endpoint, fmt.Sprint(q.Samples), fmt.Sprintf("%.2f", q.MeanDepth), fmt.Sprint(q.MaxDepth)})
	}
	table("Bus queue depth at enqueue", []string{"endpoint", "samples", "mean", "max"}, queueRows)

	completed, dropped := 0, 0
	for _, sp := range rep.Spans {
		if sp.ExecutedAt > 0 { // Span.Complete
			completed++
		}
		if sp.Dropped != "" {
			dropped++
		}
	}
	fmt.Fprintf(w, "spans: %d total, %d completed, %d dropped\n", len(rep.Spans), completed, dropped)
}
