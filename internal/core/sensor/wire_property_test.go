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
// strings, less the batch's client name, which nothing read and which a
// batch no longer carries. The descriptor-carrying types must encode
// exactly as these do, and decode what these encode.
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

// canonicalGran reports whether gran is a granularity as
// spec.Granularity writes it — what a record must name to be restored.
func canonicalGran(gran string) bool {
	g, err := spec.ParseGranularity(gran)
	return err == nil && g.String() == gran
}

// sameBits compares two values of a comparable type, their float field
// (value picks it) bit for bit: NaN equals itself.
func sameBits[T comparable](a, b T, value func(*T) *float64) bool {
	fa, fb := value(&a), value(&b)
	if math.Float64bits(*fa) != math.Float64bits(*fb) {
		return false
	}
	*fa, *fb = 0, 0
	return a == b
}

func updateValue(u *UpdateRecord) *float64 { return &u.Value }
func msgValue(m *MetricMsgRecord) *float64 { return &m.Value }
func hotUpdateValue(u *Update) *float64    { return &u.Value }
func hotMsgValue(m *MetricMsg) *float64    { return &m.Value }

// checkWire holds both message types' records to the parents for one
// case: a record of the parent's fields encodes to the parent's bytes (or
// fails where the parent's encoding does); Live accepts it exactly when
// its granularity is canonical, on a fresh unnumbered descriptor of its
// key, and then the message's record is the record again; and a message
// the server would send turns into its record and back into itself.
func checkWire(t *testing.T, c wireCase) {
	t.Helper()
	refU, refM := c.parentUpdate(), c.parentMsg()
	recU, recM := UpdateRecord(refU), MetricMsgRecord(refM)
	for _, pair := range [][2]any{{refU, recU}, {refM, recM}} {
		want, werr := json.Marshal(pair[0])
		got, err := json.Marshal(pair[1])
		if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%+v encodes as %s (%v), parent %s (%v)", pair[1], got, err, want, werr)
		}
	}

	u, errU := recU.Live()
	m, errM := recM.Live()
	if ok := canonicalGran(c.gran); (errU == nil) != ok || (errM == nil) != ok {
		t.Fatalf("%+v: Live errs %v, %v; granularity canonical = %v", c, errU, errM, ok)
	}
	if errU != nil {
		return
	}
	want := Key{Workflow: c.workflow, Task: c.task, Sensor: c.sensor, Granularity: u.Series.Key.Granularity, Node: c.node}
	if u.Series.ID != 0 || u.Series.Key != want || m.Series.ID != 0 || m.Series.Key != want || u.Series == m.Series {
		t.Fatalf("%+v: restored onto %+v and %+v, want fresh descriptors of %+v", c, *u.Series, *m.Series, want)
	}
	if back := u.Record(); !sameBits(back, recU, updateValue) {
		t.Fatalf("%+v: restored update's record is %+v", recU, back)
	}
	if back := m.Record(); !sameBits(back, recM, msgValue) {
		t.Fatalf("%+v: restored message's record is %+v", recM, back)
	}

	s := &Series{ID: 7, Key: want}
	hotU := Update{Series: s, Value: c.value, Step: c.step, GeneratedAt: time.Duration(c.genAt)}
	hotM := MetricMsg{Series: s, Value: c.value, Step: c.step, GeneratedAt: c.genAt}
	u, err := hotU.Record().Live()
	if err != nil || *u.Series != (Series{Key: want}) {
		t.Fatalf("%+v turns into its record and back onto %+v (%v)", hotU, u.Series, err)
	}
	u.Series = s
	if !sameBits(u, hotU, hotUpdateValue) {
		t.Fatalf("%+v turns into its record and back into %+v", hotU, u)
	}
	m, err = hotM.Record().Live()
	if err != nil || *m.Series != (Series{Key: want}) {
		t.Fatalf("%+v turns into its record and back onto %+v (%v)", hotM, m.Series, err)
	}
	m.Series = s
	if !sameBits(m, hotM, hotMsgValue) {
		t.Fatalf("%+v turns into its record and back into %+v", hotM, m)
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
// granularities and some that are not one, empty tasks and nodes, -0,
// NaN and ±Inf, large and negative steps and times, and random strings —
// both message records encode byte for byte as their parents did, turn
// into messages and back into themselves exactly when restore accepts
// them, and a message turns into its record and back into itself. A
// whole batch does too, its nil and empty update lists kept apart, one
// that still names its client restores, and a batch holding an update
// whose granularity does not parse is rejected.
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

	ref := parentBatch{Updates: []parentUpdate{
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "task", Value: 1, Step: 2, GeneratedAt: 3},
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "node-task", Node: "n1", Value: math.Copysign(0, -1)},
	}}
	for _, updates := range [][]parentUpdate{ref.Updates, {}, nil} {
		ref.Updates = updates
		data, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var rec BatchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		b, err := rec.Live()
		if err != nil || len(b.Updates) != len(updates) || (b.Updates == nil) != (updates == nil) {
			t.Fatalf("%s restores to %+v (%v)", data, b, err)
		}
		for i, u := range b.Updates {
			if u.Series.Key.Node != updates[i].Node || u.Series.Key.Granularity.String() != updates[i].Granularity {
				t.Fatalf("%s: update %d restores onto %+v", data, i, *u.Series)
			}
		}
		got, err := json.Marshal(b.Record())
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("batch %s restores and encodes back to %s (%v)", data, got, err)
		}
	}
	// A batch recorded while batches named their client restores, the
	// name dropped.
	var old BatchRecord
	if err := json.Unmarshal([]byte(`{"client":"monitor-client-0","updates":[{"workflow":"W","task":"A","sensor":"S","granularity":"task","value":1,"generated_at":3}]}`), &old); err != nil {
		t.Fatal(err)
	}
	if b, err := old.Live(); err != nil || len(b.Updates) != 1 || b.Updates[0].Series.Key.Task != "A" {
		t.Fatalf("a batch naming its client restores to %+v (%v)", b, err)
	}
	bad := BatchRecord{Updates: []UpdateRecord{
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "task"},
		{Workflow: "W", Task: "A", Sensor: "S", Granularity: "bogus"},
	}}
	if b, err := bad.Live(); err == nil {
		t.Fatalf("a batch naming granularity %q restored to %+v", "bogus", b)
	}
}

// FuzzMonitorWireJSON: any JSON document decodes into each Monitor record
// type exactly when it decodes into that type's parent, into the same
// fields; a decoded message record holds to checkWire, and a decoded
// batch restores exactly when each of its updates does.
func FuzzMonitorWireJSON(f *testing.F) {
	for _, c := range []wireCase{
		{"FUSION-WORKFLOW", "XGC1", "NSTEPS", "task", "", 374.0, 374, int64(time.Second)},
		{"GS", "", "PACE", "workflow", "", math.Copysign(0, -1), 0, 0},
		{"W", "t", "MEM", "node-task", "node003", 1e300, math.MaxInt64, math.MinInt64},
		{"W", "", "MEM", "node-workflow", "n<1>", -2.5, -1, -1},
		{" \"", "\x00", "\xff", "bogus", "&", 0.0, 1, 1},
	} {
		data, err := json.Marshal(c.parentMsg())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"client":"c","updates":[{"workflow":"W","granularity":"task"},{"granularity":" Task"}]}`))
	f.Add([]byte(`{"client":"c","updates":[]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pm parentMetricMsg
		var rm MetricMsgRecord
		perr, rerr := json.Unmarshal(data, &pm), json.Unmarshal(data, &rm)
		if (perr == nil) != (rerr == nil) || perr == nil && !sameBits(rm, MetricMsgRecord(pm), msgValue) {
			t.Fatalf("%q decodes to message record %+v (%v), parent %+v (%v)", data, rm, rerr, pm, perr)
		}
		var pu parentUpdate
		var ru UpdateRecord
		perr, rerr = json.Unmarshal(data, &pu), json.Unmarshal(data, &ru)
		if (perr == nil) != (rerr == nil) || perr == nil && !sameBits(ru, UpdateRecord(pu), updateValue) {
			t.Fatalf("%q decodes to update record %+v (%v), parent %+v (%v)", data, ru, rerr, pu, perr)
		}
		if perr == nil {
			checkWire(t, wireCase{pu.Workflow, pu.Task, pu.Sensor, pu.Granularity, pu.Node, pu.Value, pu.Step, int64(pu.GeneratedAt)})
		}
		var pb parentBatch
		var rb BatchRecord
		perr, rerr = json.Unmarshal(data, &pb), json.Unmarshal(data, &rb)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%q: the parent batch's decode fails with %v, the record's with %v", data, perr, rerr)
		}
		if perr != nil {
			return
		}
		restorable := true
		for _, u := range pb.Updates {
			restorable = restorable && canonicalGran(u.Granularity)
		}
		if b, err := rb.Live(); (err == nil) != restorable {
			t.Fatalf("%q: batch restores to %+v (%v), yet its updates restorable = %v", data, b, err, restorable)
		}
	})
}
