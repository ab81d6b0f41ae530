package exp

import (
	"testing"

	"dyflow/internal/apps"
	"dyflow/internal/stats"
)

// TestSweepParallelGrayScott runs the Figure 8 scenario across seeds on a
// worker pool and aggregates response-time statistics — independent
// deterministic simulations parallelize across OS threads while each run
// stays bit-reproducible.
func TestSweepParallelGrayScott(t *testing.T) {
	type outcome struct {
		plans    int
		makespan float64
	}
	results := Sweep(Seeds(1, 8), 4, func(seed int64) (outcome, error) {
		res, err := RunGrayScott(seed, apps.Summit, true)
		if err != nil {
			return outcome{}, err
		}
		return outcome{plans: len(res.W.Plans()), makespan: res.Makespan.Seconds()}, nil
	})
	if len(results) != 8 {
		t.Fatalf("results = %d", len(results))
	}
	var mk stats.Welford
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", r.Seed, r.Err)
		}
		if r.Seed != int64(i+1) {
			t.Fatalf("results out of seed order: %v", r.Seed)
		}
		if r.Out.plans != 2 {
			t.Errorf("seed %d: plans = %d, want 2", r.Seed, r.Out.plans)
		}
		mk.Add(r.Out.makespan)
	}
	// Makespans cluster tightly around the calibrated ~27-28 minutes.
	if mk.Mean() < 1500 || mk.Mean() > 1900 {
		t.Fatalf("mean makespan = %.0f s, want ~1650", mk.Mean())
	}
	if mk.StdDev() > 120 {
		t.Fatalf("makespan stddev = %.0f s, implausibly noisy", mk.StdDev())
	}
}

// TestSweepDeterministicAcrossParallelism: the same seed gives the same
// outcome regardless of pool size (no shared state between runs).
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(workers int) []float64 {
		rs := Sweep(Seeds(1, 4), workers, func(seed int64) (float64, error) {
			res, err := RunLAMMPS(seed, apps.Summit, true)
			if err != nil {
				return 0, err
			}
			return res.Makespan.Seconds(), nil
		})
		var out []float64
		for _, r := range rs {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = append(out, r.Out)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("seed %d diverged across pool sizes: %v vs %v", i+1, serial[i], parallel[i])
		}
	}
}
