package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dyflow_test_total", "a counter", "kind")
	c.With("a").Inc()
	c.With("a").Add(2)
	c.With("b").Inc()
	if got := c.With("a").Value(); got != 3 {
		t.Fatalf("counter a = %d, want 3", got)
	}
	// Counters never go down.
	c.With("a").Add(-5)
	if got := c.With("a").Value(); got != 3 {
		t.Fatalf("counter a after negative add = %d, want 3", got)
	}
	g := reg.Gauge("dyflow_test_gauge", "a gauge")
	g.With().Set(4.5)
	g.With().Add(-1.5)
	if got := g.With().Value(); got != 3.0 {
		t.Fatalf("gauge = %v, want 3.0", got)
	}
	if v, ok := reg.Value("dyflow_test_total"); !ok || v != 4 {
		t.Fatalf("Value(counter) = %v,%v, want 4,true", v, ok)
	}
	if _, ok := reg.Value("nope"); ok {
		t.Fatal("Value of unregistered family should report !ok")
	}
}

// TestHistogramBucketBoundaries pins the bucket convention: an observation
// exactly on an upper bound lands in that bucket (le is inclusive, the
// Prometheus convention), and values above every bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 5.0, 5.0001, 100} {
		h.Observe(v)
	}
	want := []uint64{
		2, // <= 1: 0.5, 1.0
		2, // (1, 2]: 1.0001, 2.0
		1, // (2, 5]: 5.0
		2, // +Inf: 5.0001, 100
	}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d (counts %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Max() != 100 {
		t.Errorf("max = %v, want 100", h.Max())
	}
	wantSum := 0.5 + 1.0 + 1.0001 + 2.0 + 5.0 + 5.0001 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramQuantile pins the nearest-rank bucket-estimate convention:
// the quantile is the upper bound of the bucket containing rank ceil(q*n),
// and ranks in the overflow bucket resolve to the exactly-tracked Max.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for _, v := range []float64{0.1, 0.2, 1.5, 1.6, 3, 3, 3, 4, 4, 42} {
		h.Observe(v) // n=10: 2 in le=1, 2 in le=2, 5 in le=5, 1 overflow
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.1, 1},   // rank 1 -> first bucket
		{0.2, 1},   // rank 2
		{0.3, 2},   // rank 3
		{0.5, 5},   // rank 5
		{0.9, 5},   // rank 9
		{0.99, 42}, // rank 10 -> overflow -> Max
		{1.0, 42},
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// A single sample answers every quantile with its own bucket.
	h1 := newHistogram([]float64{1, 2})
	h1.Observe(1.5)
	if got := h1.Quantile(0.99); got != 2 {
		t.Errorf("single-sample P99 = %v, want 2", got)
	}
}

// parsePromText is a minimal parser for the Prometheus text exposition
// format, used to check the output round-trips: it returns sample values
// keyed by "name{labels}".
func parsePromText(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("unparsable sample line %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPrometheusTextParsesBack(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dyflow_ops_total", "ops by kind", "kind")
	c.With("start").Add(7)
	c.With("stop").Add(2)
	reg.Gauge("dyflow_free_cores", "free cores").With().Set(120)
	h := reg.Histogram("dyflow_lag_seconds", "sensor lag", []float64{0.5, 1}, "sensor")
	h.With("PACE").Observe(0.25)
	h.With("PACE").Observe(0.75)
	h.With("PACE").Observe(3)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, strings.NewReader(buf.String()))

	expect := map[string]float64{
		`dyflow_ops_total{kind="start"}`:                     7,
		`dyflow_ops_total{kind="stop"}`:                      2,
		`dyflow_free_cores`:                                  120,
		`dyflow_lag_seconds_bucket{sensor="PACE",le="0.5"}`:  1,
		`dyflow_lag_seconds_bucket{sensor="PACE",le="1"}`:    2,
		`dyflow_lag_seconds_bucket{sensor="PACE",le="+Inf"}`: 3,
		`dyflow_lag_seconds_sum{sensor="PACE"}`:              4,
		`dyflow_lag_seconds_count{sensor="PACE"}`:            3,
	}
	for k, want := range expect {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing series %q in exposition:\n%s", k, buf.String())
			continue
		}
		if got != want {
			t.Errorf("series %q = %v, want %v", k, got, want)
		}
	}
	// TYPE headers present for every family.
	for _, typ := range []string{
		"# TYPE dyflow_ops_total counter",
		"# TYPE dyflow_free_cores gauge",
		"# TYPE dyflow_lag_seconds histogram",
	} {
		if !strings.Contains(buf.String(), typ) {
			t.Errorf("exposition missing %q", typ)
		}
	}
}

func TestPrometheusDeterministicOrder(t *testing.T) {
	render := func() string {
		reg := NewRegistry()
		// Register in one order, populate in another.
		reg.Gauge("z_gauge", "z").With().Set(1)
		c := reg.Counter("a_total", "a", "k")
		c.With("y").Inc()
		c.With("x").Inc()
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("exposition not deterministic:\n%s\n--- vs ---\n%s", a, b)
	}
}

func TestJSONSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dyflow_x_total", "x", "k").With("v").Add(5)
	reg.Histogram("dyflow_h_seconds", "h", []float64{1}).With().Observe(0.5)
	snap := reg.Snapshot()
	if len(snap.Metrics) != 2 {
		t.Fatalf("snapshot has %d families, want 2", len(snap.Metrics))
	}
	// Sorted by name: dyflow_h_seconds first.
	if snap.Metrics[0].Name != "dyflow_h_seconds" || snap.Metrics[1].Name != "dyflow_x_total" {
		t.Fatalf("unexpected family order: %s, %s", snap.Metrics[0].Name, snap.Metrics[1].Name)
	}
	hs := snap.Metrics[0].Series[0]
	if hs.Count != 1 || hs.Sum != 0.5 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram series snapshot wrong: %+v", hs)
	}
	cs := snap.Metrics[1].Series[0]
	if cs.Value != 5 || cs.Labels["k"] != "v" {
		t.Fatalf("counter series snapshot wrong: %+v", cs)
	}
}

func TestHTTPHandlers(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dyflow_served_total", "served").With().Add(3)
	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples := parsePromText(t, resp.Body)
	if samples["dyflow_served_total"] != 3 {
		t.Fatalf("served = %v, want 3", samples["dyflow_served_total"])
	}

	jsrv := httptest.NewServer(JSONHandler(reg))
	defer jsrv.Close()
	jresp, err := http.Get(jsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	body, err := io.ReadAll(jresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"dyflow_served_total"`) {
		t.Fatalf("JSON snapshot missing metric: %s", body)
	}
}

// TestConcurrentAccess hammers a registry from many goroutines while a
// reader scrapes it — the `dyflow-exp serve` access pattern — and relies
// on `go test -race` to flag unsynchronized access.
func TestConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := reg.Counter("dyflow_conc_total", "c", "w")
			g := reg.Gauge("dyflow_conc_gauge", "g")
			h := reg.Histogram("dyflow_conc_seconds", "h", nil, "w")
			label := fmt.Sprintf("w%d", i%4)
			for j := 0; j < 500; j++ {
				c.With(label).Inc()
				g.With().Add(1)
				h.With(label).Observe(float64(j) / 100)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = reg.WritePrometheus(io.Discard)
				_, _ = reg.Value("dyflow_conc_total")
			}
		}()
	}
	wg.Wait()
	if v, _ := reg.Value("dyflow_conc_total"); v != 8*500 {
		t.Fatalf("final count = %v, want %d", v, 8*500)
	}
	if v, _ := reg.Value("dyflow_conc_gauge"); v != 8*500 {
		t.Fatalf("final gauge = %v, want %d", v, 8*500)
	}
}
