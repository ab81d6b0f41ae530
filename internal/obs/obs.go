// Package obs is DYFLOW's unified metrics registry: typed, labeled
// counters, gauges, and fixed-bucket histograms shared by all four
// orchestration stages and the substrate packages (resmgr, wms, stream,
// cluster). It replaces the flight recorder's unbounded latency-sample
// slices with bounded histogram storage and adds live exposition: the
// Prometheus text format for scraping (`dyflow-exp serve`) and a JSON
// snapshot for programmatic export.
//
// Storage is lock-free on the hot path: counters and gauges are atomics,
// histogram buckets are atomic counters, and the registry mutex is taken
// only when resolving a (family, label-set) handle. That makes every
// metric safe to read from an HTTP goroutine while the single-threaded
// simulation mutates it — the property `dyflow-exp serve` relies on.
//
// Every instrumented component (resmgr, wms, stream, cluster, the Monitor
// clients and the flight recorder) takes its registry as a constructor
// argument, so it publishes from the moment it exists. core.New and
// exp.NewWorld create the registry and pass it on.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType classifies a metric family.
type MetricType string

// The three supported family types (matching Prometheus TYPE names).
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// labelSep joins label values into a series key; it cannot appear in a
// label value that survives escaping (0xff is invalid UTF-8).
const labelSep = "\xff"

// Registry holds metric families in name order. One registry serves one
// orchestrated world.
type Registry struct {
	mu       sync.Mutex
	families []*family // sorted by name
}

type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64 // histogram upper bounds (ascending)

	mu     sync.Mutex
	series []series // sorted by key
}

// series is one label-value tuple's metric in a family.
type series struct {
	key    string // the label values joined by labelSep
	metric any    // *Counter | *Gauge | *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// family resolves or creates a metric family, enforcing that re-registering
// a name keeps its type and label arity (a programmer error otherwise).
func (r *Registry) family(name, help string, typ MetricType, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.find(name)
	if ok {
		f := r.families[i]
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
	}
	r.families = slices.Insert(r.families, i, f)
	return f
}

// find is where the family called name is in r.families, or would be;
// the caller holds r.mu.
func (r *Registry) find(name string) (int, bool) {
	return slices.BinarySearchFunc(r.families, name, func(f *family, name string) int { return strings.Compare(f.name, name) })
}

// Counter registers (or resolves) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, TypeCounter, nil, labels)}
}

// Gauge registers (or resolves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, TypeGauge, nil, labels)}
}

// Histogram registers (or resolves) a histogram family with fixed bucket
// upper bounds (ascending; an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets()
	}
	return &HistogramVec{f: r.family(name, help, TypeHistogram, buckets, labels)}
}

// with resolves a series handle within a family, creating it on first use.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	// The first series whose key is not below key, searched by hand: with
	// slices.BinarySearchFunc's callback a With costs ≈ 25 % more.
	i, j := 0, len(f.series)
	for i < j {
		if h := int(uint(i+j) >> 1); f.series[h].key < key {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == len(f.series) || f.series[i].key != key {
		f.series = slices.Insert(f.series, i, series{key: key, metric: mk()})
	}
	return f.series[i].metric
}

// CounterVec is a labeled counter family handle.
type CounterVec struct{ f *family }

// With resolves the counter for one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a labeled gauge family handle.
type GaugeVec struct{ f *family }

// With resolves the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a labeled histogram family handle.
type HistogramVec struct{ f *family }

// With resolves the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.with(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored — counters only go up).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Bucket intervals
// follow the Prometheus `le` convention: an observation v lands in the
// first bucket whose upper bound is >= v (bounds are inclusive); values
// above every bound land in the implicit +Inf overflow bucket. Count, Sum,
// and Max are tracked exactly; quantiles are bucket-resolution estimates.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	maxBits atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram creates a histogram with the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DefaultLatencyBuckets returns the bucket bounds (in seconds) used for
// orchestrator latency distributions: 1ms to 10min, roughly logarithmic.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300, 600,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Max returns the largest observation (0 with no observations).
func (h *Histogram) Max() float64 {
	return math.Float64frombits(h.maxBits.Load())
}

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile with the nearest-rank convention
// (rank = ceil(q*n), the same convention trace.percentile documents): it
// returns the upper bound of the bucket containing that rank. Ranks that
// fall in the +Inf overflow bucket return Max(), the exactly-tracked
// largest observation. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return h.bounds[i]
		}
	}
	return h.Max()
}

// SeriesSnapshot is one labeled series in a Snapshot.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value.
	Value float64 `json:"value,omitempty"`
	// Histogram payload.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// MetricSnapshot is one family in a Snapshot.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Type   MetricType       `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is the registry's JSON-marshalable state.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// snapshot walks families in name order, series in label order, so equal
// states render byte-identical snapshots. It holds the registry's lock
// throughout and each family's while it reads that family.
func (r *Registry) snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot
	for _, f := range r.families {
		snap.Metrics = append(snap.Metrics, f.snapshot())
	}
	return snap
}

func (f *family) snapshot() MetricSnapshot {
	ms := MetricSnapshot{Name: f.name, Type: f.typ, Help: f.help}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		ss := SeriesSnapshot{}
		if len(f.labels) > 0 {
			ss.Labels = make(map[string]string, len(f.labels))
			for i, v := range splitKey(s.key, len(f.labels)) {
				ss.Labels[f.labels[i]] = v
			}
		}
		switch m := s.metric.(type) {
		case *Counter:
			ss.Value = float64(m.Value())
		case *Gauge:
			ss.Value = m.Value()
		case *Histogram:
			ss.Count = m.Count()
			ss.Sum = m.Sum()
			ss.Max = m.Max()
			ss.Bounds = m.Bounds()
			ss.Buckets = m.BucketCounts()
		}
		ms.Series = append(ms.Series, ss)
	}
	return ms
}

// Snapshot returns the registry's current state for programmatic use.
func (r *Registry) Snapshot() Snapshot { return r.snapshot() }

// Value returns the sum of a family's series values: counter and gauge
// families sum the per-series values, histogram families sum the counts.
// ok is false for unregistered names.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	i, ok := r.find(name)
	var f *family
	if ok {
		f = r.families[i]
	}
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var total float64
	for _, s := range f.series {
		switch s := s.metric.(type) {
		case *Counter:
			total += float64(s.Value())
		case *Gauge:
			total += s.Value()
		case *Histogram:
			total += float64(s.Count())
		}
	}
	return total, true
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series,
// histogram series expanded into cumulative _bucket/_sum/_count lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.snapshot().WritePrometheus(w)
}

// WithLabel returns a copy of the snapshot with an extra label on every
// series. The fleet coordinator uses it to tag a worker's pushed snapshot
// with `worker="<id>"` before merging it into the fleet-wide exposition.
// An existing label with the same key is overwritten.
func (snap Snapshot) WithLabel(key, value string) Snapshot {
	out := Snapshot{Metrics: make([]MetricSnapshot, len(snap.Metrics))}
	for i, m := range snap.Metrics {
		fm := m
		fm.Series = make([]SeriesSnapshot, len(m.Series))
		for j, s := range m.Series {
			fs := s
			fs.Labels = make(map[string]string, len(s.Labels)+1)
			for k, v := range s.Labels {
				fs.Labels[k] = v
			}
			fs.Labels[key] = value
			fm.Series[j] = fs
		}
		out.Metrics[i] = fm
	}
	return out
}

// MergeSnapshots combines snapshots into one: families are matched by
// name (type/help from the first appearance) and their series
// concatenated. Callers are expected to disambiguate colliding series
// with WithLabel first; no values are summed. The result keeps families
// sorted by name, so merging sorted inputs stays byte-deterministic.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	byName := make(map[string]*MetricSnapshot)
	var names []string
	for _, snap := range snaps {
		for _, m := range snap.Metrics {
			f, ok := byName[m.Name]
			if !ok {
				cp := MetricSnapshot{Name: m.Name, Type: m.Type, Help: m.Help}
				byName[m.Name] = &cp
				f = &cp
				names = append(names, m.Name)
			}
			f.Series = append(f.Series, m.Series...)
		}
	}
	sort.Strings(names)
	out := Snapshot{Metrics: make([]MetricSnapshot, 0, len(names))}
	for _, n := range names {
		out.Metrics = append(out.Metrics, *byName[n])
	}
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format — the same rendering Registry.WritePrometheus delegates to, so a
// merged fleet snapshot and a live registry expose identically.
func (snap Snapshot) WritePrometheus(w io.Writer) error {
	for _, m := range snap.Metrics {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, escapeHelp(m.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
			return err
		}
		for _, s := range m.Series {
			if m.Type == TypeHistogram {
				if err := writePromHistogram(w, m.Name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, promLabels(s.Labels, "", 0), fmtFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s SeriesSnapshot) error {
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s.Labels, "le", b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s.Labels, "le", math.Inf(1)), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(s.Labels, "", 0), fmtFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(s.Labels, "", 0), s.Count)
	return err
}

// promLabels renders a label set (plus an optional le bound) as
// {k="v",...}, keys sorted, or "" when empty.
func promLabels(labels map[string]string, le string, bound float64) string {
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, escapeLabel(labels[k]))
	}
	if le != "" {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		leVal := "+Inf"
		if !math.IsInf(bound, 1) {
			leVal = fmtFloat(bound)
		}
		fmt.Fprintf(&b, "%s=%q", le, leVal)
	}
	if b.Len() == 0 {
		return ""
	}
	return "{" + b.String() + "}"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format. %q in
// promLabels already escapes quotes and backslashes; newlines are the only
// extra concern and %q handles them too, so this just strips the raw value
// of the separator byte that can never round-trip.
func escapeLabel(v string) string { return strings.ReplaceAll(v, labelSep, "") }

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, "\\", "\\\\")
	return strings.ReplaceAll(v, "\n", "\\n")
}

func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, labelSep, n)
}
