package server

import (
	"sort"
	"time"

	"dyflow/internal/runstore"
	"dyflow/internal/stats"
)

// GET /v1/analytics — cross-campaign aggregates computed over the full
// run history: per-tenant and per-scenario counts and outcomes,
// queue-wait vs execution latency percentiles from the per-run phase
// timestamps, cache hit rates, the lease-expiry/requeue counters, and
// (on request) time-bucketed submission trends. Terminal runs are
// evicted from the resident table into the runstore segments, so the
// aggregate folds history metas first and overlays the resident
// (live) runs on top.

// LatencySummary is a nearest-rank percentile summary over a sample
// set, in seconds.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

// GroupAnalytics aggregates one tenant's or one scenario's runs.
type GroupAnalytics struct {
	Name      string           `json:"name"`
	Runs      int              `json:"runs"`
	ByState   map[RunState]int `json:"by_state"`
	CacheHits int              `json:"cache_hits"`
	QueueWait LatencySummary   `json:"queue_wait"`
	Execution LatencySummary   `json:"execution"`
}

// Analytics is the GET /v1/analytics payload.
type Analytics struct {
	Runs      int              `json:"runs"`
	ByState   map[RunState]int `json:"by_state"`
	CacheHits int              `json:"cache_hits"`
	// CacheHitRate is cache hits over total runs (0 when no runs).
	CacheHitRate float64 `json:"cache_hit_rate"`

	// QueueWait summarizes ClaimedAt−QueuedAt over runs a worker
	// claimed; Execution summarizes FinishedAt−StartedAt over runs that
	// finished executing (cached answers never execute and are excluded
	// from both).
	QueueWait LatencySummary `json:"queue_wait"`
	Execution LatencySummary `json:"execution"`

	// LeaseExpiries and RestoreRequeues surface the requeue-rate
	// counters (dyflow_server_fleet_lease_expiries_total,
	// dyflow_server_restore_requeued_total).
	LeaseExpiries   int64 `json:"lease_expiries"`
	RestoreRequeues int64 `json:"restore_requeues"`

	Tenants   []GroupAnalytics `json:"tenants"`
	Scenarios []GroupAnalytics `json:"scenarios"`

	// Trends is the time-bucketed submission view, present when the
	// request asked for one (?trend_bucket=1h&trend_buckets=24).
	TrendBucketSeconds float64       `json:"trend_bucket_s,omitempty"`
	Trends             []TrendBucket `json:"trends,omitempty"`
}

// TrendBucket aggregates the runs submitted within one time bucket.
type TrendBucket struct {
	Start     time.Time        `json:"start"`
	Runs      int              `json:"runs"`
	ByState   map[RunState]int `json:"by_state"`
	CacheHits int              `json:"cache_hits"`
	Execution LatencySummary   `json:"execution"`
}

// maxTrendBuckets bounds one trends response.
const maxTrendBuckets = 500

// runSample is the per-run tuple the aggregates fold over — built from
// a resident *Run or an evicted history Meta, whichever is live.
type runSample struct {
	tenant, scenario string
	state            RunState
	cached           bool
	submittedNs      int64
	qw, ex           float64 // seconds; -1 when the phase never happened
}

// Analytics computes the cross-campaign aggregate view without trends.
func (s *Server) Analytics() Analytics {
	return s.AnalyticsWithTrends(0, 0)
}

// AnalyticsWithTrends additionally buckets submissions into bucket-wide
// trend windows (bucket <= 0 disables trends; buckets caps how many of
// the most recent windows are returned, maxTrendBuckets when <= 0).
func (s *Server) AnalyticsWithTrends(bucket time.Duration, buckets int) Analytics {
	samples := s.analyticsSamples()

	a := Analytics{ByState: map[RunState]int{}}
	var queueWaits, execTimes []float64
	tenants := map[string]*groupAcc{}
	scenarios := map[string]*groupAcc{}

	accumulate := func(m map[string]*groupAcc, key string, sm runSample) {
		g := m[key]
		if g == nil {
			g = &groupAcc{byState: map[RunState]int{}}
			m[key] = g
		}
		g.runs++
		g.byState[sm.state]++
		if sm.cached {
			g.cacheHits++
		}
		if sm.qw >= 0 {
			g.queueWaits = append(g.queueWaits, sm.qw)
		}
		if sm.ex >= 0 {
			g.execTimes = append(g.execTimes, sm.ex)
		}
	}

	for _, sm := range samples {
		a.Runs++
		a.ByState[sm.state]++
		if sm.cached {
			a.CacheHits++
		}
		if sm.qw >= 0 {
			queueWaits = append(queueWaits, sm.qw)
		}
		if sm.ex >= 0 {
			execTimes = append(execTimes, sm.ex)
		}
		accumulate(tenants, sm.tenant, sm)
		accumulate(scenarios, sm.scenario, sm)
	}

	if a.Runs > 0 {
		a.CacheHitRate = float64(a.CacheHits) / float64(a.Runs)
	}
	a.QueueWait = summarize(queueWaits)
	a.Execution = summarize(execTimes)
	if v, ok := s.reg.Value("dyflow_server_fleet_lease_expiries_total"); ok {
		a.LeaseExpiries = int64(v)
	}
	if v, ok := s.reg.Value("dyflow_server_restore_requeued_total"); ok {
		a.RestoreRequeues = int64(v)
	}
	a.Tenants = renderGroups(tenants)
	a.Scenarios = renderGroups(scenarios)
	if bucket > 0 {
		a.TrendBucketSeconds = bucket.Seconds()
		a.Trends = trendBuckets(samples, bucket, buckets)
	}
	return a
}

// analyticsSamples folds the full run population into flat samples:
// resident runs (live state) first, then history metas for everything
// already evicted. Resident runs also have history records; the
// resident copy wins.
func (s *Server) analyticsSamples() []runSample {
	// Every resident run has a history record too, so the store's count is
	// the population's.
	samples := make([]runSample, 0, s.history.Len())
	s.mu.Lock()
	resident := make(map[string]bool, len(s.order))
	for _, id := range s.order {
		r := s.runs[id]
		resident[id] = true
		sm := runSample{
			tenant: r.Tenant, scenario: r.Job.Scenario,
			state: r.State, cached: r.Cached,
			submittedNs: unixNs(r.SubmittedAt), qw: -1, ex: -1,
		}
		if !r.ClaimedAt.IsZero() && !r.QueuedAt.IsZero() {
			sm.qw = r.ClaimedAt.Sub(r.QueuedAt).Seconds()
		}
		if !r.FinishedAt.IsZero() && !r.StartedAt.IsZero() {
			sm.ex = r.FinishedAt.Sub(r.StartedAt).Seconds()
		}
		samples = append(samples, sm)
	}
	s.mu.Unlock()

	s.history.EachMeta(func(m *runstore.Meta) bool {
		if resident[m.ID] {
			return true
		}
		sm := runSample{
			tenant: m.Tenant, scenario: m.Scenario,
			state: RunState(m.State), cached: m.Cached,
			submittedNs: m.SubmittedAtNs, qw: -1, ex: -1,
		}
		if m.ClaimedAtNs > 0 && m.QueuedAtNs > 0 {
			sm.qw = time.Duration(m.ClaimedAtNs - m.QueuedAtNs).Seconds()
		}
		if m.FinishedAtNs > 0 && m.StartedAtNs > 0 {
			sm.ex = time.Duration(m.FinishedAtNs - m.StartedAtNs).Seconds()
		}
		samples = append(samples, sm)
		return true
	})
	return samples
}

// trendBuckets groups samples into bucket-aligned windows by submission
// time, returning the most recent `limit` non-empty-range windows.
func trendBuckets(samples []runSample, bucket time.Duration, limit int) []TrendBucket {
	if limit <= 0 || limit > maxTrendBuckets {
		limit = maxTrendBuckets
	}
	bNs := bucket.Nanoseconds()
	var minNs, maxNs int64
	seen := false
	for _, sm := range samples {
		if sm.submittedNs == 0 {
			continue
		}
		if !seen || sm.submittedNs < minNs {
			minNs = sm.submittedNs
		}
		if !seen || sm.submittedNs > maxNs {
			maxNs = sm.submittedNs
		}
		seen = true
	}
	if !seen {
		return nil
	}
	start := (minNs / bNs) * bNs
	n := int((maxNs-start)/bNs) + 1
	first := 0
	if n > limit {
		first = n - limit
		n = limit
	}
	out := make([]TrendBucket, n)
	var execs [][]float64 = make([][]float64, n)
	for i := range out {
		out[i] = TrendBucket{
			Start:   time.Unix(0, start+int64(first+i)*bNs),
			ByState: map[RunState]int{},
		}
	}
	for _, sm := range samples {
		if sm.submittedNs == 0 {
			continue
		}
		i := int((sm.submittedNs-start)/bNs) - first
		if i < 0 || i >= n {
			continue // older than the returned window
		}
		out[i].Runs++
		out[i].ByState[sm.state]++
		if sm.cached {
			out[i].CacheHits++
		}
		if sm.ex >= 0 {
			execs[i] = append(execs[i], sm.ex)
		}
	}
	for i := range out {
		out[i].Execution = summarize(execs[i])
	}
	return out
}

type groupAcc struct {
	runs       int
	byState    map[RunState]int
	cacheHits  int
	queueWaits []float64
	execTimes  []float64
}

func renderGroups(groups map[string]*groupAcc) []GroupAnalytics {
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]GroupAnalytics, 0, len(names))
	for _, n := range names {
		g := groups[n]
		out = append(out, GroupAnalytics{
			Name:      n,
			Runs:      g.runs,
			ByState:   g.byState,
			CacheHits: g.cacheHits,
			QueueWait: summarize(g.queueWaits),
			Execution: summarize(g.execTimes),
		})
	}
	return out
}

// summarize computes a nearest-rank percentile summary; samples are
// sorted in place.
func summarize(samples []float64) LatencySummary {
	n := len(samples)
	if n == 0 {
		return LatencySummary{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return LatencySummary{
		Count: n,
		Mean:  sum / float64(n),
		P50:   stats.NearestRank(samples, 0.50),
		P90:   stats.NearestRank(samples, 0.90),
		P99:   stats.NearestRank(samples, 0.99),
		Max:   samples[n-1],
	}
}
