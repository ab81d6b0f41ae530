// Package sensor implements DYFLOW's Monitor stage (paper §2.1, §3).
//
// The stage is a client/server service. Clients run "near the tasks":
// they connect to the configured information sources (TAU-over-ADIOS2
// streams, raw ADIOS2 streams, disk scans, files, scheduler exit-status
// files), distill sizeable per-process inputs with the preprocess
// operation, apply the group-by/reduction pipeline at task and node-task
// granularity, and ship sensor updates to the server in batches.
//
// The server manages the clients: it derives the cross-task granularities
// (workflow and node-workflow) from the task-level updates, computes joined
// metrics, and forwards the resulting metric values to the Decision stage.
// It takes the updates in the order they were sent, which is the order the
// bus delivers them in.
//
// Every message names its series by reference, a *Series descriptor, not
// by its five-field key: an update is 32 bytes on the client->server link
// and a metric message 32 bytes on the server->decision link, and a
// consumer indexes its per-series state by the descriptor instead of
// hashing the key. The key is spelled out only in a message's record
// (record.go), which a checkpoint holds.
package sensor

import (
	"fmt"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
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

// Series is a Monitor series' descriptor: its key, named once, that every
// message and metric of the series points at instead of spelling the key
// out. A descriptor is immutable once made, so whoever receives one may
// keep it. Three parties make them:
//
//   - the Monitor server, one per series it keeps, when lookup first makes
//     the series (derived series included). Only the server numbers
//     descriptors: densely, from 1, in creation order, so a consumer can
//     index its per-series state by ID. A restored server renumbers.
//   - a Monitor client, one per (target, sensor, granularity, node) it
//     ships, interned on the worker that ships it. ID 0.
//   - a message record (record.go): a message restored from a checkpoint
//     gets a fresh descriptor. ID 0.
//
// An ID therefore names a slot, not a series: a consumer holding state at
// Series.ID keeps the descriptor it built the state for and compares
// pointers. A different pointer at that ID — first sight, a restored
// message (ID 0), a renumbered server — is a miss, resolved by the key.
type Series struct {
	ID  uint32
	Key Key
}

// Update is one client-side sensor reading, shipped to the server. Its
// series travels by reference, as the shipping worker interned it (always
// a task or node-task series). Its encoded form is UpdateRecord.
type Update struct {
	Series *Series
	Value  float64
	// Step is the source timestep/index when available.
	Step int
	// GeneratedAt is the virtual time the underlying data was produced
	// (stream record production or file mtime); the server derives the
	// monitoring lag from it.
	GeneratedAt time.Duration
}

// Batch is the client->server wire message, sent as a *Batch and
// recycled (payload.go); its encoded form is BatchRecord.
type Batch struct {
	Updates []Update
	lease   msg.Lease[Batch]
}

// Metric is a server-side metric value forwarded to the Decision stage.
// Key is the series' key and Series its descriptor; the server and FromMsg
// set both, and a checkpoint spells out only the key.
type Metric struct {
	Key         Key
	Series      *Series `json:"-"`
	Value       float64
	Step        int
	GeneratedAt sim.Time // when the underlying data was produced
	ObservedAt  sim.Time // when the server forwarded the metric
}

// MetricMsg is a Metric on the server->decision link: its series by
// reference, the server's descriptor. It carries no ObservedAt: the server
// stamps every metric it forwards with the instant it sends them, which
// the envelope carries as SentAt. Its encoded form is MetricMsgRecord.
type MetricMsg struct {
	Series      *Series
	Value       float64
	Step        int
	GeneratedAt int64
}

// MetricList is the server->decision wire message, sent as a *MetricList
// and recycled (payload.go); its encoded form is a list of
// MetricMsgRecord.
type MetricList struct {
	Msgs  []MetricMsg
	lease msg.Lease[MetricList]
}

// ToMsg converts a Metric for the wire, naming its series by its
// descriptor.
func (m Metric) ToMsg() MetricMsg {
	return MetricMsg{Series: m.Series, Value: m.Value, Step: m.Step, GeneratedAt: int64(m.GeneratedAt)}
}

// FromMsg converts a wire message back to a Metric observed at sentAt, the
// SentAt of the envelope that carried it.
func FromMsg(w MetricMsg, sentAt sim.Time) Metric {
	return Metric{
		Key:         w.Series.Key,
		Series:      w.Series,
		Value:       w.Value,
		Step:        w.Step,
		GeneratedAt: sim.Time(w.GeneratedAt),
		ObservedAt:  sentAt,
	}
}

// The client-side cost of acquiring and distilling one sensor update,
// which is what produces the paper's §4.6 lag numbers (~0.2 s for a single
// variable read from disk, ~0.5 s for TAU data actively streamed via
// ADIOS2). They are this reproduction's calibration, not a setting.
const (
	// PollInterval is the scan period for polling sources (disk/file/
	// status).
	PollInterval = time.Second
	// DiskRead is the cost of scanning and reading files for one update.
	DiskRead = 200 * time.Millisecond
	// StreamBase is the fixed cost of decoding one streamed record (TAU
	// ships the value inside a two-dimensional variable, which makes the
	// streamed read ~2.5x the flat disk read — §4.6 reports ~0.5 s vs
	// ~0.2 s).
	StreamBase = 450 * time.Millisecond
	// StreamPerValue is the additional cost per per-rank value in a
	// streamed record (TAU ships one value per process).
	StreamPerValue = time.Millisecond
)
