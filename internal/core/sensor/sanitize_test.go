package sensor

import (
	"encoding/json"
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

func newSanitizeClient(t *testing.T, reg *obs.Registry) *Client {
	t.Helper()
	s := sim.New(1)
	env := &task.Env{Sim: s, FS: fsim.New(s), Streams: stream.NewRegistry(s, reg)}
	bus := msg.NewBus(s)
	wl := &fakeWorkload{placements: map[string]task.Placement{}}
	return NewClient("mc", env, bus, "monitor-server", &spec.Config{}, nil, wl, env.Sim.Spawn, reg)
}

// Non-finite readings must be dropped before they reach history windows,
// counted per reason in dyflow_sensor_dropped_samples_total.
func TestSanitizeDropsNonFiniteReadings(t *testing.T) {
	reg := obs.NewRegistry()
	c := newSanitizeClient(t, reg)

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

// A clean batch passes through untouched and counts no drop.
func TestSanitizeKeepsCleanBatch(t *testing.T) {
	reg := obs.NewRegistry()
	c := newSanitizeClient(t, reg)
	clean := []float64{4, 5}
	if out, nan, inf := c.sanitize(clean); len(out) != 2 || &out[0] != &clean[0] || nan != 0 || inf != 0 {
		t.Fatalf("sanitize(%v) = %v (nan %d, inf %d), want the batch itself", clean, out, nan, inf)
	}
	if got, _ := reg.Value("dyflow_sensor_dropped_samples_total"); got != 0 {
		t.Fatalf("dyflow_sensor_dropped_samples_total = %v, want 0", got)
	}
}

// TestPendingShipEncodesNonFiniteReadings: a pending shipment's raw
// readings survive a JSON round trip bit for bit, NaN and ±Inf included,
// and finite readings encode exactly as a []float64 does — so a checkpoint
// without a non-finite reading is byte for byte what it was.
func TestPendingShipEncodesNonFiniteReadings(t *testing.T) {
	for _, rs := range []Readings{nil, {}, {1, -0.5, 1e300, 3}, {math.NaN(), 2, math.Inf(1), math.Inf(-1), -0.0}} {
		data, err := json.Marshal(PendingShip{Readings: rs, Step: 4, GenAt: 5})
		if err != nil {
			t.Fatalf("%v: %v", rs, err)
		}
		finite := true
		for _, v := range rs {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if finite {
			plain, _ := json.Marshal(struct {
				Readings []float64 `json:"readings"`
				Step     int       `json:"step"`
				GenAt    sim.Time  `json:"gen_at"`
			}{rs, 4, 5})
			if string(data) != string(plain) {
				t.Errorf("finite readings encode as %s, a []float64 as %s", data, plain)
			}
		}
		var back PendingShip
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if (back.Readings == nil) != (rs == nil) || len(back.Readings) != len(rs) {
			t.Fatalf("%s decoded to %v, want %v", data, back.Readings, rs)
		}
		for i := range rs {
			if math.Float64bits(back.Readings[i]) != math.Float64bits(rs[i]) && !(math.IsNaN(rs[i]) && math.IsNaN(back.Readings[i])) {
				t.Fatalf("%s decoded to %v, want %v", data, back.Readings, rs)
			}
		}
	}
	var r Readings
	if err := json.Unmarshal([]byte(`[1,"inf"]`), &r); err == nil {
		t.Errorf(`a reading "inf" decoded to %v, want an error`, r)
	}
}

// TestClientSnapshotEncodesNonFiniteBacklog: a stream worker's buffered
// records are raw staged values too. A backlog holding NaN or ±Inf in a
// record's Array checkpoints and restores bit for bit, and finite values
// encode exactly as a []float64 does. A record that still carries the
// named-variable key records once had restores with it ignored.
func TestClientSnapshotEncodesNonFiniteBacklog(t *testing.T) {
	backlog := []stream.Step{
		{Index: 3, Array: []float64{1, math.NaN(), math.Inf(-1), -0.0}, Produced: 5},
		{Index: 4, Array: []float64{2, 1e300}, Produced: 6},
		{Index: 5},
	}
	c := newSanitizeClient(t, obs.NewRegistry())
	c.Restore(ClientSnapshot{Name: "mc", Workers: []WorkerSnap{{Name: "mc/wf.task.tau", State: WorkerState{Phase: phaseRecv, Buffered: backlog}}}})
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatalf("checkpoint with a non-finite backlog: %v", err)
	}
	var snap ClientSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: %v", data, err)
	}
	restored := newSanitizeClient(t, obs.NewRegistry())
	restored.Restore(snap)
	again, err := json.Marshal(restored.Snapshot())
	if err != nil || string(again) != string(data) {
		t.Fatalf("restored client checkpoints as %s (%v), want %s", again, err, data)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	got := snap.Workers[0].State.Buffered
	for i, want := range backlog {
		g := got[i]
		if g.Index != want.Index || g.Produced != want.Produced || len(g.Array) != len(want.Array) {
			t.Fatalf("record %d restored as %+v, want %+v", i, g, want)
		}
		for j := range want.Array {
			if !same(g.Array[j], want.Array[j]) {
				t.Fatalf("record %d Array restored as %v, want %v", i, g.Array, want.Array)
			}
		}
	}

	finite := backlog[1]
	plain, _ := json.Marshal(struct {
		Index    int
		Array    []float64
		Produced sim.Time
	}{finite.Index, finite.Array, finite.Produced})
	if enc, _ := json.Marshal(finite); string(enc) != string(plain) {
		t.Errorf("a finite record encodes as %s, with plain types as %s", enc, plain)
	}
	var bad stream.Step
	if err := json.Unmarshal([]byte(`{"Array":[1,"inf"]}`), &bad); err == nil {
		t.Errorf(`a value "inf" decoded to %v, want an error`, bad.Array)
	}
	var old stream.Step
	if err := json.Unmarshal([]byte(`{"Index":2,"Vars":{"err":"NaN"},"Array":[1],"Produced":7}`), &old); err != nil ||
		old.Index != 2 || len(old.Array) != 1 || old.Array[0] != 1 || old.Produced != 7 {
		t.Errorf("a record with a Vars key decoded to %+v (%v), want it ignored", old, err)
	}
}
