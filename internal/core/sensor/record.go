package sensor

import (
	"fmt"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/core/spec"
)

// UpdateRecord is an Update's encoded form: the series' key spelled out,
// then the reading.
type UpdateRecord struct {
	Workflow    string        `json:"workflow"`
	Task        string        `json:"task"`
	Sensor      string        `json:"sensor"`
	Granularity string        `json:"granularity"` // "task" or "node-task"
	Node        string        `json:"node,omitempty"`
	Value       float64       `json:"value"`
	Step        int           `json:"step,omitempty"`
	GeneratedAt time.Duration `json:"generated_at"`
}

// BatchRecord is a Batch's encoded form.
type BatchRecord struct {
	Updates []UpdateRecord `json:"updates"`
}

// MetricMsgRecord is a MetricMsg's encoded form.
type MetricMsgRecord struct {
	Workflow    string  `json:"workflow"`
	Task        string  `json:"task,omitempty"`
	Sensor      string  `json:"sensor"`
	Granularity string  `json:"granularity"`
	Node        string  `json:"node,omitempty"`
	Value       float64 `json:"value"`
	Step        int     `json:"step,omitempty"`
	GeneratedAt int64   `json:"generated_at"`
}

// recordSeries returns a fresh, unnumbered descriptor of the series a
// record names. A granularity not written as spec.Granularity writes it
// names no series and is an error.
func recordSeries(workflow, task, sensor, granularity, node string) (*Series, error) {
	g, err := spec.ParseGranularity(granularity)
	if err != nil || g.String() != granularity {
		return nil, fmt.Errorf("sensor: record of %s/%s names granularity %q", workflow, sensor, granularity)
	}
	return &Series{Key: Key{Workflow: workflow, Task: task, Sensor: sensor, Granularity: g, Node: node}}, nil
}

// Record returns the update's record.
func (u Update) Record() UpdateRecord {
	k := u.Series.Key
	return UpdateRecord{k.Workflow, k.Task, k.Sensor, k.Granularity.String(), k.Node, u.Value, u.Step, u.GeneratedAt}
}

// Live returns the update a record holds, on a fresh descriptor.
func (r UpdateRecord) Live() (Update, error) {
	s, err := recordSeries(r.Workflow, r.Task, r.Sensor, r.Granularity, r.Node)
	return Update{Series: s, Value: r.Value, Step: r.Step, GeneratedAt: r.GeneratedAt}, err
}

// Record returns the batch's record.
func (b Batch) Record() BatchRecord {
	return BatchRecord{ckpt.Map(b.Updates, Update.Record)}
}

// Live returns the batch a record holds.
func (r BatchRecord) Live() (Batch, error) {
	updates, err := ckpt.TryMap(r.Updates, UpdateRecord.Live)
	return Batch{Updates: updates}, err
}

// Record returns the message's record.
func (w MetricMsg) Record() MetricMsgRecord {
	k := w.Series.Key
	return MetricMsgRecord{k.Workflow, k.Task, k.Sensor, k.Granularity.String(), k.Node, w.Value, w.Step, w.GeneratedAt}
}

// Live returns the message a record holds, on a fresh descriptor.
func (r MetricMsgRecord) Live() (MetricMsg, error) {
	s, err := recordSeries(r.Workflow, r.Task, r.Sensor, r.Granularity, r.Node)
	return MetricMsg{Series: s, Value: r.Value, Step: r.Step, GeneratedAt: r.GeneratedAt}, err
}
