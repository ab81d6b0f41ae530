package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{3600, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	rates := []float64{250, 243, 290, 120, 251, 249, 260, 248, 252}
	if got := median(rates); got != 250 {
		t.Errorf("median of 9 round rates = %v, want the middle one, 250", got)
	}
	if rates[0] != 250 || rates[3] != 120 {
		t.Error("median reordered its input")
	}
	if got := midmean([]float64{1000, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean = %v, want 3.5 (mean of 2..5)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100; a 10..40 with a nested child 20..30; b 35..60 overlaps a;
	// c 90..130 runs past the root; e 5..25 has a child that was recorded
	// before it and starts before it.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "a1", Parent: 1, Start: 20, End: 30},
		{Name: "b", Parent: 0, Start: 35, End: 60},
		{Name: "c", Parent: 0, Start: 90, End: 130},
		{Name: "late", Parent: 6, Start: -20, End: 15}, // recorded before its parent
		{Name: "e", Parent: 0, Start: 5, End: 25},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (60 - 5) - 10, // children cover 5..60 (a, b, e merged) and 90..100
		30 - 10,             // a minus a1
		10,                  // a1
		25,                  // b: overlap with a is still b's own time
		10,                  // c clipped to the root's end
		10,                  // late clipped to e: 5..15
		20 - 10,             // e minus late
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestAdoptFleetSpans(t *testing.T) {
	spans := []span{
		{Name: "fleet.claim", Run: "r1", Parent: -1, Start: 0, End: 12},
		{Name: "fleet.blob_put", Run: "r1", Parent: -1, Start: 30, End: 35},
		{Name: "fleet.result", Run: "r0", Parent: -1, Start: 1, End: 2}, // run not traced
		{Name: "run", Run: "r1", Parent: -1, Start: 8, End: 50},
		{Name: "server.queue", Run: "r1", Parent: 3, Start: 9, End: 11},
		{Name: "server.exec", Run: "r1", Parent: 3, Start: 11, End: 40},
	}
	adoptFleetSpans(spans)
	if spans[0].Parent != 4 || spans[1].Parent != 5 || spans[2].Parent != -1 {
		t.Errorf("parents = %d %d %d, want 4 5 -1", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	self := selfTimes(spans)
	if self[0] != 2 || self[4] != 0 || self[5] != 24 {
		t.Errorf("claim self %d (want 2, clipped to the queue phase), queue %d (want 0), exec %d (want 24)",
			self[0], self[4], self[5])
	}
}

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, 7), makePlan(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different plans", w.Name)
		}
		if reflect.DeepEqual(a.Measured, makePlan(w, 8).Measured) {
			t.Errorf("%s: seeds 7 and 8 gave the same jobs", w.Name)
		}
		if len(a.Measured) != w.Rounds*w.PerRound ||
			len(a.Preload) != w.Preload || len(a.Warm) != w.WarmRounds*w.PerRound {
			t.Errorf("%s: plan sizes do not match the frozen counts", w.Name)
		}
		seen := map[int64]bool{}
		for _, j := range append(append(a.Setup, a.Warm...), a.Measured...) {
			if w.Preload == 0 && seen[j.Job.Seed] {
				t.Fatalf("%s: job seed %d repeats, so a run would be a cache hit", w.Name, j.Job.Seed)
			}
			seen[j.Job.Seed] = true
		}
	}
	if got := workloads[0].scaled(nominalSeconds * 2).PerRound; got != workloads[0].PerRound*2 {
		t.Errorf("doubling --seconds scaled PerRound to %d", got)
	}
	if got := workloads[1].scaled(1).PerRound; got != 1 {
		t.Errorf("des-heavy scaled below one run per round: %d", got)
	}
}

// The seed reaches the program only through makePlan: no other file may
// draw random numbers.
func TestOnlyThePlanDrawsRandomNumbers(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "workload.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "math/rand") {
			t.Errorf("%s imports math/rand; only workload.go may", f)
		}
	}
}

// smoke is svc-light cut down to 40 measured runs.
func smoke() workload {
	w := workloads[0]
	w.SetupRepeats, w.SetupRuns, w.WarmRounds, w.Rounds, w.PerRound, w.Samples = 1, 4, 0, 4, 10, 2
	return w
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(file[key], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	return out
}

func resultNames(r *result) []string {
	var out []string
	for _, m := range r.Metrics {
		out = append(out, m.Name+" "+m.Unit)
	}
	return out
}

func TestSmokeSvcLightOneRound(t *testing.T) {
	t0 := time.Now()
	res, err := runEndToEnd(smoke(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 44 {
		t.Errorf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
	}
	for _, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Errorf("%s = %v, want a positive measurement", m.Name, m.Value)
		}
	}
	if got, want := resultNames(res), benchmarkNames(t, "end_to_end"); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end pass prints %v, BENCHMARK.json lists %v", got, want)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("smoke took %v, want under 5s", d)
	}
}

func TestTracedPassPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes take a few seconds")
	}
	dir := t.TempDir()
	w := smoke()
	w.Rounds, w.PerRound = 16, 10 // quarters of 40: control, traced, direct submits, spare
	res, err := runTraced(w, 1, dir, filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.Failures)
	}
	if got, want := resultNames(res), benchmarkNames(t, "per_layer"); !reflect.DeepEqual(got, want) {
		t.Errorf("traced pass prints\n%v\nBENCHMARK.json lists\n%v", got, want)
	}
	for _, m := range res.Metrics {
		if m.Name == "trace.self_sum_share" && (m.Value < 0.95 || m.Value > 1.05) {
			t.Errorf("self times add up to %.3f of the traced wall time, want within 5%%", m.Value)
		}
	}
	var spans []span
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err == nil {
		err = json.Unmarshal(data, &spans)
	}
	if err != nil || len(spans) < 40*5 {
		t.Errorf("trace file: %d spans, err %v", len(spans), err)
	}
}
