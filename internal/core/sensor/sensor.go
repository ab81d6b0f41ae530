// Package sensor implements DYFLOW's Monitor stage (paper §2.1, §3).
//
// The stage is a client/server service. Clients run "near the tasks":
// they connect to the configured information sources (TAU-over-ADIOS2
// streams, raw ADIOS2 streams, disk scans, files, scheduler exit-status
// files), distill sizeable per-process inputs with the preprocess
// operation, apply the group-by/reduction pipeline at task and node-task
// granularity, and ship sensor updates to the server as JSON messages.
//
// The server manages the clients: it filters out-of-order updates, derives
// the cross-task granularities (workflow and node-workflow) from the
// task-level updates, computes joined metrics, and forwards the resulting
// metric values to the Decision stage.
package sensor

import (
	"fmt"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/sim"
)

// Key identifies one metric series.
type Key struct {
	Workflow    string
	Task        string // empty for workflow-granularity series
	Sensor      string
	Granularity spec.Granularity
	Node        string // set for node-task / node-workflow series
}

// String renders the key compactly for logs and traces.
func (k Key) String() string {
	s := fmt.Sprintf("%s/%s@%s", k.Workflow, k.Sensor, k.Granularity)
	if k.Task != "" {
		s += "/" + k.Task
	}
	if k.Node != "" {
		s += "[" + k.Node + "]"
	}
	return s
}

// Update is one client-side sensor reading, shipped to the server as JSON.
type Update struct {
	Workflow    string  `json:"workflow"`
	Task        string  `json:"task"`
	Sensor      string  `json:"sensor"`
	Granularity string  `json:"granularity"` // "task" or "node-task"
	Node        string  `json:"node,omitempty"`
	Value       float64 `json:"value"`
	// Step is the source timestep/index when available.
	Step int `json:"step,omitempty"`
	// GeneratedAt is the virtual time the underlying data was produced
	// (stream record production or file mtime); the server derives the
	// monitoring lag from it.
	GeneratedAt time.Duration `json:"generated_at"`
}

// Batch is the client->server wire message.
type Batch struct {
	Client  string   `json:"client"`
	Updates []Update `json:"updates"`
}

// Metric is a server-side metric value forwarded to the Decision stage.
type Metric struct {
	Key         Key
	Value       float64
	Step        int
	GeneratedAt sim.Time // when the underlying data was produced
	ObservedAt  sim.Time // when the server forwarded the metric
}

// MetricMsg is the JSON form of a Metric on the server->decision link. It
// carries no ObservedAt: the server stamps every metric it forwards with
// the instant it sends them, which the envelope carries as SentAt.
type MetricMsg struct {
	Workflow    string  `json:"workflow"`
	Task        string  `json:"task,omitempty"`
	Sensor      string  `json:"sensor"`
	Granularity string  `json:"granularity"`
	Node        string  `json:"node,omitempty"`
	Value       float64 `json:"value"`
	Step        int     `json:"step,omitempty"`
	GeneratedAt int64   `json:"generated_at"`
}

// ToMsg converts a Metric for the wire.
func (m Metric) ToMsg() MetricMsg {
	return MetricMsg{
		Workflow:    m.Key.Workflow,
		Task:        m.Key.Task,
		Sensor:      m.Key.Sensor,
		Granularity: m.Key.Granularity.String(),
		Node:        m.Key.Node,
		Value:       m.Value,
		Step:        m.Step,
		GeneratedAt: int64(m.GeneratedAt),
	}
}

// FromMsg converts a wire message back to a Metric observed at sentAt, the
// SentAt of the envelope that carried it.
func FromMsg(w MetricMsg, sentAt sim.Time) (Metric, error) {
	g, err := spec.ParseGranularity(w.Granularity)
	if err != nil {
		return Metric{}, err
	}
	return Metric{
		Key: Key{
			Workflow:    w.Workflow,
			Task:        w.Task,
			Sensor:      w.Sensor,
			Granularity: g,
			Node:        w.Node,
		},
		Value:       w.Value,
		Step:        w.Step,
		GeneratedAt: sim.Time(w.GeneratedAt),
		ObservedAt:  sentAt,
	}, nil
}

// Costs models the client-side cost of acquiring and distilling one sensor
// update, which is what produces the paper's §4.6 lag numbers (~0.2 s for a
// single variable read from disk, ~0.5 s for TAU data actively streamed
// via ADIOS2).
type Costs struct {
	// PollInterval is the scan period for polling sources (disk/file/
	// status). Default 1s.
	PollInterval time.Duration
	// DiskRead is the cost of scanning and reading files for one update.
	// Default 200ms.
	DiskRead time.Duration
	// StreamBase is the fixed cost of decoding one streamed record (TAU
	// ships the value inside a two-dimensional variable, which makes the
	// streamed read ~2.5x the flat disk read — §4.6 reports ~0.5 s vs
	// ~0.2 s). Default 450ms.
	StreamBase time.Duration
	// StreamPerValue is the additional cost per per-rank value in a
	// streamed record (TAU ships one value per process). Default 1ms.
	StreamPerValue time.Duration
}

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs {
	return Costs{
		PollInterval:   time.Second,
		DiskRead:       200 * time.Millisecond,
		StreamBase:     450 * time.Millisecond,
		StreamPerValue: time.Millisecond,
	}
}

func (c Costs) withDefaults() Costs {
	d := DefaultCosts()
	if c.PollInterval <= 0 {
		c.PollInterval = d.PollInterval
	}
	if c.DiskRead <= 0 {
		c.DiskRead = d.DiskRead
	}
	if c.StreamBase <= 0 {
		c.StreamBase = d.StreamBase
	}
	if c.StreamPerValue <= 0 {
		c.StreamPerValue = d.StreamPerValue
	}
	return c
}
