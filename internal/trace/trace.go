// Package trace is DYFLOW's flight recorder: a low-overhead observability
// subsystem threaded through all four stages (Monitor, Decision,
// Arbitration, Actuation). It exists to make the paper's §4.6 cost
// analysis — the decomposition of response time into per-stage lags —
// measurable end to end instead of being scattered across per-stage
// counters.
//
// The unit of correlation is the suggestion lifecycle Span: Decision mints
// a per-suggestion ID when a policy fires, and every later stage stamps
// its timestamp onto the same span (ObservedAt and GeneratedAt ride in on
// the triggering metric). A completed span therefore decomposes the full
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
// forwarded/re-polled/dropped, evaluations, suggestions, guard discards,
// empty-plan rounds, actuation ops), per-operation actuation latency, and
// bus queue-depth samples.
//
// All methods are nil-receiver safe so stages can call them
// unconditionally; an untraced engine simply records nothing.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
)

// Span is one suggestion's lifecycle across the four stages. Zero
// timestamps mean the span never reached that stage; Dropped names the
// reason when Arbitration discarded it.
type Span struct {
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

	// Dropped is the discard reason ("warmup", "settle", "stale",
	// "empty-plan") when the suggestion never reached actuation.
	Dropped string `json:"dropped,omitempty"`
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

// queueAcc accumulates depth samples for one bus endpoint.
type queueAcc struct {
	samples int
	sum     int64
	max     int
}

// Recorder is the flight recorder shared by one orchestrator's stages.
// The simulation substrate runs processes one at a time, but `dyflow-exp
// serve` reads the recorder from HTTP goroutines while a run is in
// flight, so all state is mutex-guarded. Latency distributions are stored
// in bounded obs.Histogram buckets rather than unbounded sample slices;
// when a metrics registry is attached with SetMetrics, those histograms
// ARE the registry's labeled series (shared storage, no double counting)
// and counters/queue depths mirror into registry families.
type Recorder struct {
	mu sync.Mutex

	spans map[string]*Span
	order []string // span IDs in creation order

	counters map[string]int64

	sensorLags map[string]*obs.Histogram // sensor ID -> detection-lag histogram (seconds)
	opLats     map[string]*obs.Histogram // op kind -> execution-latency histogram (seconds)
	queues     map[string]*queueAcc      // endpoint -> depth accumulator

	events   *obs.CounterVec   // dyflow_stage_events_total{event}
	lagVec   *obs.HistogramVec // dyflow_sensor_lag_seconds{sensor}
	opVec    *obs.HistogramVec // dyflow_actuation_op_seconds{op}
	queueVec *obs.GaugeVec     // dyflow_bus_queue_depth{endpoint}

	onComplete func(Span) // invoked (without r.mu held) when a span completes
}

// New creates an empty recorder.
func New() *Recorder {
	return &Recorder{
		spans:      make(map[string]*Span),
		counters:   make(map[string]int64),
		sensorLags: make(map[string]*obs.Histogram),
		opLats:     make(map[string]*obs.Histogram),
		queues:     make(map[string]*queueAcc),
	}
}

// SetMetrics attaches a metrics registry: stage counters mirror into
// dyflow_stage_events_total{event}, sensor lags and op latencies are
// stored in the registry's dyflow_sensor_lag_seconds{sensor} /
// dyflow_actuation_op_seconds{op} histogram series, and queue depths set
// dyflow_bus_queue_depth{endpoint}. Attach before recording: histograms
// resolved earlier stay standalone and do not appear in the registry.
func (r *Recorder) SetMetrics(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = reg.Counter("dyflow_stage_events_total",
		"Flight-recorder stage counter events by name.", "event")
	r.lagVec = reg.Histogram("dyflow_sensor_lag_seconds",
		"Sensor detection lag (data generation to metric forwarded).", nil, "sensor")
	r.opVec = reg.Histogram("dyflow_actuation_op_seconds",
		"Actuation operation execution latency.", nil, "op")
	r.queueVec = reg.Gauge("dyflow_bus_queue_depth",
		"Bus queue depth sampled at enqueue.", "endpoint")
}

// Inc adds delta to a named stage counter.
func (r *Recorder) Inc(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] += delta
	if delta > 0 {
		r.events.With(name).Add(delta)
	}
}

// Counter returns a named counter's value (0 if never incremented).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Suggested opens a span: Decision emitted a suggestion.
func (r *Recorder) Suggested(id, workflow, policy, action, sensorID string, generatedAt, observedAt, decidedAt sim.Time) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.spans[id]; ok {
		return
	}
	r.spans[id] = &Span{
		ID:          id,
		Workflow:    workflow,
		Policy:      policy,
		Action:      action,
		Sensor:      sensorID,
		GeneratedAt: generatedAt,
		ObservedAt:  observedAt,
		DecidedAt:   decidedAt,
	}
	r.order = append(r.order, id)
}

// Received stamps the span's arrival at Arbitration.
func (r *Recorder) Received(id string, at sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.spans[id]; ok {
		sp.ReceivedAt = at
	}
}

// Planned stamps the plan-finalization instant.
func (r *Recorder) Planned(id string, at sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.spans[id]; ok {
		sp.PlannedAt = at
	}
}

// SetOnComplete registers a hook fired with a copy of each span the
// moment its ExecutedAt is stamped — the full lifecycle is then known.
// The hook runs on the stamping goroutine with the recorder unlocked, so
// it may call back into the recorder; it must not block for long (it sits
// on the actuation path). The campaign service uses it to forward
// completed spans into a run's live event stream.
func (r *Recorder) SetOnComplete(fn func(Span)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onComplete = fn
	r.mu.Unlock()
}

// Executed stamps the actuation-complete instant.
func (r *Recorder) Executed(id string, at sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	var done Span
	fn := r.onComplete
	if sp, ok := r.spans[id]; ok {
		sp.ExecutedAt = at
		done = *sp
	} else {
		fn = nil
	}
	r.mu.Unlock()
	if fn != nil {
		fn(done)
	}
}

// Drop marks the span discarded at Arbitration with a reason.
func (r *Recorder) Drop(id, reason string, at sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.spans[id]; ok {
		sp.Dropped = reason
		if sp.ReceivedAt == 0 {
			sp.ReceivedAt = at
		}
	}
}

// hist resolves the histogram for one key in a distribution map, creating
// it on first use: from the attached registry family (shared storage with
// the exposed series) when one is set, standalone otherwise. Caller holds
// r.mu.
func hist(m map[string]*obs.Histogram, vec *obs.HistogramVec, key string) *obs.Histogram {
	h, ok := m[key]
	if !ok {
		if vec != nil {
			h = vec.With(key)
		} else {
			h = obs.NewHistogram(nil)
		}
		m[key] = h
	}
	return h
}

// SensorLag records one detection-lag sample (data generation to metric
// forwarded) for a sensor.
func (r *Recorder) SensorLag(sensorID string, lag sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	hist(r.sensorLags, r.lagVec, sensorID).Observe(lag.Seconds())
}

// SensorLagQuantile returns the q-quantile of a sensor's recorded
// detection lags at histogram-bucket resolution (0 with no samples) — the
// value the dyflow self-monitoring sensor source exposes.
func (r *Recorder) SensorLagQuantile(sensorID string, q float64) sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	h := r.sensorLags[sensorID]
	r.mu.Unlock()
	return secondsToDuration(h.Quantile(q))
}

// OpExecuted records one actuation operation's execution latency.
func (r *Recorder) OpExecuted(kind string, started, ended sim.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	hist(r.opLats, r.opVec, kind).Observe((ended - started).Seconds())
}

// QueueDepth records one bus queue-depth sample for an endpoint. Negative
// depths (a miscounting producer) clamp to zero and the running sum
// saturates instead of wrapping, so MeanDepth stays a depth.
func (r *Recorder) QueueDepth(endpoint string, depth int) {
	if r == nil {
		return
	}
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
	r.queueVec.With(endpoint).Set(float64(depth))
}

// QueueMaxDepth returns the largest depth sampled for an endpoint (0 if
// never sampled) — exposed through the dyflow self-monitoring source.
func (r *Recorder) QueueMaxDepth(endpoint string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.queues[endpoint]; ok {
		return q.max
	}
	return 0
}

// Spans returns all spans in creation order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, *r.spans[id])
	}
	return out
}

// Span returns one span by ID.
func (r *Recorder) Span(id string) (Span, bool) {
	if r == nil {
		return Span{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, ok := r.spans[id]
	if !ok {
		return Span{}, false
	}
	return *sp, true
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
	Spans      []Span         `json:"spans"`
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
	if r == nil {
		return &Report{}
	}
	rep := &Report{Spans: r.Spans()}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Per-policy per-stage latencies over completed spans.
	byPolicy := map[string][]Span{}
	for _, sp := range rep.Spans {
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
		rep.Counters = append(rep.Counters, CounterValue{Name: name, Value: r.counters[name]})
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
		if sp.Complete() {
			completed++
		}
		if sp.Dropped != "" {
			dropped++
		}
	}
	fmt.Fprintf(w, "spans: %d total, %d completed, %d dropped\n", len(rep.Spans), completed, dropped)
}
