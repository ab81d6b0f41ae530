package sensor

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dyflow/internal/core/spec"
)

// parentUpdate, parentBatch and parentMetricMsg are the two Monitor wire
// types as they stood when each message spelled its series out as five
// strings. The descriptor-carrying types must encode exactly as these do,
// and decode what these encode.
type parentUpdate struct {
	Workflow    string        `json:"workflow"`
	Task        string        `json:"task"`
	Sensor      string        `json:"sensor"`
	Granularity string        `json:"granularity"` // "task" or "node-task"
	Node        string        `json:"node,omitempty"`
	Value       float64       `json:"value"`
	Step        int           `json:"step,omitempty"`
	GeneratedAt time.Duration `json:"generated_at"`
}

type parentBatch struct {
	Client  string         `json:"client"`
	Updates []parentUpdate `json:"updates"`
}

type parentMetricMsg struct {
	Workflow    string  `json:"workflow"`
	Task        string  `json:"task,omitempty"`
	Sensor      string  `json:"sensor"`
	Granularity string  `json:"granularity"`
	Node        string  `json:"node,omitempty"`
	Value       float64 `json:"value"`
	Step        int     `json:"step,omitempty"`
	GeneratedAt int64   `json:"generated_at"`
}

// wireCase is one message's content: a key whose granularity is named by
// gran (which may not parse), and the reading.
type wireCase struct {
	workflow, task, sensor, gran, node string
	value                              float64
	step                               int
	genAt                              int64
}

func (c wireCase) parentUpdate() parentUpdate {
	return parentUpdate{c.workflow, c.task, c.sensor, c.gran, c.node, c.value, c.step, time.Duration(c.genAt)}
}

func (c wireCase) parentMsg() parentMetricMsg {
	return parentMetricMsg{c.workflow, c.task, c.sensor, c.gran, c.node, c.value, c.step, c.genAt}
}

// checkWire holds both wire types to their parent's JSON for one case:
// encoding a message whose key parses gives the parent's bytes (or fails
// where the parent's fails), and decoding the parent's bytes gives a fresh
// unnumbered descriptor with the key the parent type decodes and the same
// reading — or, for a granularity that does not parse, no descriptor.
func checkWire(t *testing.T, c wireCase) {
	t.Helper()
	refU, refM := c.parentUpdate(), c.parentMsg()
	wantU, errU := json.Marshal(refU)
	wantM, errM := json.Marshal(refM)
	g, gerr := spec.ParseGranularity(c.gran)
	if gerr == nil && g.String() == c.gran {
		s := &Series{ID: 7, Key: Key{Workflow: c.workflow, Task: c.task, Sensor: c.sensor, Granularity: g, Node: c.node}}
		gotU, err := json.Marshal(Update{Series: s, Value: c.value, Step: c.step, GeneratedAt: time.Duration(c.genAt)})
		if (err != nil) != (errU != nil) || !bytes.Equal(gotU, wantU) {
			t.Fatalf("%+v: Update encodes as %s (%v), parent %s (%v)", c, gotU, err, wantU, errU)
		}
		gotM, err := json.Marshal(MetricMsg{Series: s, Value: c.value, Step: c.step, GeneratedAt: c.genAt})
		if (err != nil) != (errM != nil) || !bytes.Equal(gotM, wantM) {
			t.Fatalf("%+v: MetricMsg encodes as %s (%v), parent %s (%v)", c, gotM, err, wantM, errM)
		}
	}
	if errU != nil || errM != nil {
		return // a NaN or an Inf: nothing was encoded to decode
	}

	var pu parentUpdate
	var u Update
	if err := json.Unmarshal(wantU, &pu); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantU, &u); err != nil {
		t.Fatalf("%+v: decoding %s: %v", c, wantU, err)
	}
	checkDecoded(t, wantU, u.Series, pu.Workflow, pu.Task, pu.Sensor, pu.Granularity, pu.Node)
	if math.Float64bits(u.Value) != math.Float64bits(pu.Value) || u.Step != pu.Step || u.GeneratedAt != pu.GeneratedAt {
		t.Fatalf("%s decodes to %+v, parent %+v", wantU, u, pu)
	}

	var pm parentMetricMsg
	var m MetricMsg
	if err := json.Unmarshal(wantM, &pm); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantM, &m); err != nil {
		t.Fatalf("%+v: decoding %s: %v", c, wantM, err)
	}
	checkDecoded(t, wantM, m.Series, pm.Workflow, pm.Task, pm.Sensor, pm.Granularity, pm.Node)
	if math.Float64bits(m.Value) != math.Float64bits(pm.Value) || m.Step != pm.Step || m.GeneratedAt != pm.GeneratedAt {
		t.Fatalf("%s decodes to %+v, parent %+v", wantM, m, pm)
	}
	if m.Series != nil {
		got, err := FromMsg(m, 5)
		if err != nil || got.Key != m.Series.Key || got.Series != m.Series || got.ObservedAt != 5 {
			t.Fatalf("%s: FromMsg = %+v, %v", wantM, got, err)
		}
	} else if _, err := FromMsg(m, 5); err == nil {
		t.Fatalf("%s: FromMsg of a message naming no series succeeded", wantM)
	}
}

// checkDecoded: a decoded descriptor is fresh and unnumbered, with the key
// the parent type decoded; a granularity that does not parse decodes to
// none.
func checkDecoded(t *testing.T, data []byte, s *Series, workflow, task, sensor, gran, node string) {
	t.Helper()
	g, err := spec.ParseGranularity(gran)
	if err != nil {
		if s != nil {
			t.Fatalf("%s: granularity %q does not parse, yet decodes to %+v", data, gran, s)
		}
		return
	}
	want := Key{Workflow: workflow, Task: task, Sensor: sensor, Granularity: g, Node: node}
	if s == nil || s.ID != 0 || s.Key != want {
		t.Fatalf("%s decodes to %+v, want a fresh descriptor of %+v", data, s, want)
	}
}

var wireGrans = []string{"task", "node-task", "workflow", "node-workflow", "bogus", ""}

// genWireString draws a string: often empty, often a short name, sometimes
// random runes with the characters JSON escapes.
func genWireString(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return []string{"GS", "XGC1", "node003", "FUSION-WORKFLOW", "PACE"}[rng.Intn(5)]
	}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			b.WriteByte(`"\<>&/`[rng.Intn(6)])
		case 1:
			b.WriteRune(rune(rng.Intn(0x20)))
		case 2:
			b.WriteRune(rune(0x80 + rng.Intn(0x2000)))
		case 3:
			b.WriteRune(' ')
		default:
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// TestProperty_MonitorWire_EqualsParentJSON: over seeded cases — all four
// granularities and some that do not parse, empty tasks and nodes, -0,
// NaN and ±Inf, large and negative steps and times, and random strings —
// both wire types encode byte for byte as their parents did and decode what
// their parents encoded. A whole batch does too, and a batch holding an
// update whose granularity does not parse decodes its other updates.
func TestProperty_MonitorWire_EqualsParentJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3217E))
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e300, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}
	steps := []int{0, 1, -1, 374, math.MaxInt, math.MinInt}
	times := []int64{0, 1, -1, int64(time.Hour), math.MaxInt64, math.MinInt64}
	for i := 0; i < 5000; i++ {
		c := wireCase{
			workflow: genWireString(rng), task: genWireString(rng), sensor: genWireString(rng),
			gran: wireGrans[rng.Intn(len(wireGrans))], node: genWireString(rng),
			value: rng.NormFloat64() * 1e3, step: rng.Int(), genAt: rng.Int63(),
		}
		if rng.Intn(3) == 0 {
			c.value = values[rng.Intn(len(values))]
		}
		if rng.Intn(3) == 0 {
			c.step = steps[rng.Intn(len(steps))]
		}
		if rng.Intn(3) == 0 {
			c.genAt = times[rng.Intn(len(times))]
		}
		checkWire(t, c)
	}

	ref := parentBatch{Client: "monitor-client-0", Updates: []parentUpdate{
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "task", Value: 1, Step: 2, GeneratedAt: 3},
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "bogus", Value: 4},
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "node-task", Node: "n1", Value: math.Copysign(0, -1)},
	}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Updates) != 3 || b.Client != ref.Client || b.Updates[1].Series != nil ||
		b.Updates[0].Series.Key != (Key{Workflow: "W", Task: "A", Sensor: "S", Granularity: spec.GranTask}) ||
		b.Updates[2].Series.Key != (Key{Workflow: "W", Task: "A", Sensor: "S", Granularity: spec.GranNodeTask, Node: "n1"}) {
		t.Fatalf("%s decodes to %+v", data, b)
	}
	b.Updates = append(b.Updates[:1], b.Updates[2])
	ref.Updates = append(ref.Updates[:1], ref.Updates[2])
	got, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(ref); !bytes.Equal(got, want) {
		t.Fatalf("batch encodes as %s, parent %s", got, want)
	}
}

// FuzzMonitorWireJSON is the same property over fuzzer-chosen content.
func FuzzMonitorWireJSON(f *testing.F) {
	f.Add("FUSION-WORKFLOW", "XGC1", "NSTEPS", uint8(0), "", 374.0, int64(374), int64(time.Second))
	f.Add("GS", "", "PACE", uint8(2), "", math.Copysign(0, -1), int64(0), int64(0))
	f.Add("W", "t", "MEM", uint8(1), "node003", 1e300, int64(math.MaxInt64), int64(math.MinInt64))
	f.Add("W", "", "MEM", uint8(3), "n<1>", -2.5, int64(-1), int64(-1))
	f.Add(" \"", "\x00", "\xff", uint8(4), "&", 0.0, int64(1), int64(1))
	f.Fuzz(func(t *testing.T, workflow, task, sensor string, gran uint8, node string, value float64, step, genAt int64) {
		checkWire(t, wireCase{
			workflow: workflow, task: task, sensor: sensor, node: node,
			gran:  wireGrans[int(gran)%len(wireGrans)],
			value: value, step: int(step), genAt: genAt,
		})
	})
}
