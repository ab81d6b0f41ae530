package sensor

import (
	"math"
	"testing"

	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stream"
	"dyflow/internal/task"
)

func newSanitizeClient(t *testing.T) *Client {
	t.Helper()
	s := sim.New(1)
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s)}
	bus := msg.NewBus(s)
	wl := &fakeWorkload{placements: map[string]task.Placement{}, running: map[string]bool{}}
	return NewClient("mc", env, bus, "monitor-server", &spec.Config{}, nil, wl, Costs{})
}

// Non-finite readings must be dropped before they reach history windows,
// counted per reason in dyflow_sensor_dropped_samples_total.
func TestSanitizeDropsNonFiniteReadings(t *testing.T) {
	c := newSanitizeClient(t)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)

	in := []float64{1, math.NaN(), 2, math.Inf(1), math.Inf(-1), 3}
	out, nan, inf := c.sanitize(in)
	want := []float64{1, 2, 3}
	if len(out) != len(want) {
		t.Fatalf("sanitize(%v) = %v, want %v", in, out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("sanitize(%v) = %v, want %v", in, out, want)
		}
	}
	if got, _ := reg.Value("dyflow_sensor_dropped_samples_total"); got != 3 || nan != 1 || inf != 2 {
		t.Fatalf("dyflow_sensor_dropped_samples_total = %v (nan %d, inf %d), want 3 (1, 2)", got, nan, inf)
	}
	// The shared staged array must not be mutated: dirty input is filtered
	// into a copy.
	if len(in) != 6 || !math.IsNaN(in[1]) || !math.IsInf(in[3], 1) {
		t.Fatalf("input mutated: %v", in)
	}
}

// A clean batch passes through untouched, and a client without a metrics
// registry still sanitizes without panicking (nil-safe counters).
func TestSanitizeCleanAndUnmetered(t *testing.T) {
	c := newSanitizeClient(t)
	clean := []float64{4, 5}
	if out, _, _ := c.sanitize(clean); len(out) != 2 || out[0] != 4 || out[1] != 5 {
		t.Fatalf("sanitize(%v) = %v", clean, out)
	}
	// No SetMetrics: the drop counter is nil and must be a no-op.
	if out, _, _ := c.sanitize([]float64{math.NaN(), 7}); len(out) != 1 || out[0] != 7 {
		t.Fatalf("unmetered sanitize = %v, want [7]", out)
	}
}
