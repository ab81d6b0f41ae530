package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// TraceDump is the portable JSON form of a recorded run, written by the
// dyflow tool and rendered by dyflow-gantt.
type TraceDump struct {
	End       int64          `json:"end_ns"`
	Intervals []IntervalDump `json:"intervals"`
	Plans     []PlanDump     `json:"plans,omitempty"`
	Metrics   []MetricDump   `json:"metrics,omitempty"`
}

// IntervalDump is one task incarnation.
type IntervalDump struct {
	Workflow    string `json:"workflow"`
	Task        string `json:"task"`
	Incarnation int    `json:"incarnation"`
	Procs       int    `json:"procs"`
	StartNS     int64  `json:"start_ns"`
	EndNS       int64  `json:"end_ns"`
	Final       string `json:"final"`
	ExitCode    int    `json:"exit_code"`
}

// PlanDump is one arbitration round.
type PlanDump struct {
	Workflow   string   `json:"workflow"`
	ReceivedNS int64    `json:"received_ns"`
	ExecutedNS int64    `json:"executed_ns"`
	Ops        []string `json:"ops"`
	Err        string   `json:"err,omitempty"`
}

// MetricDump is one observed metric point.
type MetricDump struct {
	AtNS     int64   `json:"at_ns"`
	Workflow string  `json:"workflow"`
	Task     string  `json:"task,omitempty"`
	Sensor   string  `json:"sensor"`
	Gran     string  `json:"granularity"`
	Value    float64 `json:"value"`
}

// Dump converts the recorder's state into its portable form.
func (r *Recorder) Dump() *TraceDump {
	d := &TraceDump{End: int64(r.s.Now())}
	for _, iv := range r.Intervals {
		d.Intervals = append(d.Intervals, IntervalDump{
			Workflow:    iv.Workflow,
			Task:        iv.Task,
			Incarnation: iv.Incarnation,
			Procs:       iv.Procs,
			StartNS:     int64(iv.Start),
			EndNS:       int64(iv.End),
			Final:       iv.Final.String(),
			ExitCode:    iv.ExitCode,
		})
	}
	for _, p := range r.Plans {
		pd := PlanDump{
			Workflow:   p.Workflow,
			ReceivedNS: int64(p.ReceivedAt),
			ExecutedNS: int64(p.ExecutedAt),
			Err:        p.Err,
		}
		for _, op := range p.Plan.Ops {
			pd.Ops = append(pd.Ops, op.String())
		}
		d.Plans = append(d.Plans, pd)
	}
	r.EachMetric(func(m MetricPoint) {
		d.Metrics = append(d.Metrics, MetricDump{
			AtNS:     int64(m.At),
			Workflow: m.Key.Workflow,
			Task:     m.Key.Task,
			Sensor:   m.Key.Sensor,
			Gran:     m.Key.Granularity.String(),
			Value:    m.Value,
		})
	})
	return d
}

// WriteFile writes the dump as indented JSON.
func (d *TraceDump) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadTraceDump reads a dump written by WriteFile.
func LoadTraceDump(path string) (*TraceDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d TraceDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("exp: parse trace %s: %w", path, err)
	}
	return &d, nil
}

// Gantt renders the dump as an ASCII chart, standalone (no live recorder
// needed).
func (d *TraceDump) Gantt(w io.Writer, width int) {
	// Rebuild a recorder-shaped view and reuse its renderer.
	s := sim.New(0)
	s.At(sim.Time(d.End), func() {})
	s.RunUntilIdle()
	rec := NewRecorder(s)
	for _, iv := range d.Intervals {
		final := task.Completed
		if iv.Final == task.Failed.String() {
			final = task.Failed
		}
		rec.Intervals = append(rec.Intervals, Interval{
			Workflow:    iv.Workflow,
			Task:        iv.Task,
			Incarnation: iv.Incarnation,
			Procs:       iv.Procs,
			Start:       sim.Time(iv.StartNS),
			End:         sim.Time(iv.EndNS),
			Final:       final,
			ExitCode:    iv.ExitCode,
		})
	}
	rec.Gantt(w, width)
	if len(d.Plans) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-4s %-12s %-12s %s\n", "#", "received", "executed", "ops")
		for i, p := range d.Plans {
			fmt.Fprintf(w, "%-4d %-12v %-12v %v\n", i+1, sim.Time(p.ReceivedNS), sim.Time(p.ExecutedNS), p.Ops)
		}
	}
}
