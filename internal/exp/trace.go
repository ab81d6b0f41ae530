package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/sensor"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// Interval is one task incarnation's lifetime in the trace.
type Interval struct {
	Workflow    string
	Task        string
	Incarnation int
	Procs       int
	// Nodes is the sorted node set the incarnation was placed on — the
	// Perfetto exporter draws the interval on each node's track.
	Nodes    []string
	Start    sim.Time
	End      sim.Time // zero while still running
	Final    task.State
	ExitCode int
}

// Open reports whether the incarnation is still running.
func (iv Interval) Open() bool {
	return iv.End == 0 && iv.Final != task.Completed && iv.Final != task.Failed
}

// MetricPoint is one sensor metric value as Decision received it.
type MetricPoint struct {
	At    sim.Time
	Key   sensor.Key
	Value float64
	Step  int
}

// point is a MetricPoint as the recorder stores it: 32 bytes, the series
// key replaced by the series' descriptor, which the Monitor server made
// and never changes. A sensor.Key is five fields.
type point struct {
	at     sim.Time
	value  float64
	step   int
	series *sensor.Series
}

// Recorder accumulates the observable history of a run: task incarnation
// intervals and the metric series a reader declared through Keep, as the
// Decision stage received them. With the arbitration rounds, which the
// arbiter keeps (World.Plans), that is everything the Gantt charts and
// experiment reports print.
type Recorder struct {
	s         *sim.Sim
	Intervals []Interval
	open      map[string]int // instance key -> index into Intervals
	// arb is the attached orchestrator's arbiter, which keeps the run's
	// executed rounds (World.Plans reads the same log); nil for a baseline
	// run. monitor is that orchestrator's Monitor server.
	arb     *arbiter.Engine
	monitor *sensor.Server

	// keep selects the series some reader declared (Keep); nil when no
	// reader did, and then the recorder does not observe the Monitor
	// server at all.
	keep func(sensor.Key) bool
	// The kept metrics in arrival order, read through EachMetric. They are
	// held in chunks (chunkCap) so that recording one more never copies
	// the ones already held.
	points [][]point
}

// pointChunk fills a 16 KB size class: a point holds a pointer, and the
// runtime heads such an object of more than 512 bytes with an 8-byte
// header, which would push 512 points (16 384 bytes) into the 18 KB class.
// headChunks is how many smaller chunks come before the first of them.
const (
	pointChunk = 511
	headChunks = 4
)

// chunkCap is the length of a series' nth chunk: 31, 63, 127, 255, then
// pointChunk from there on. Each fills its size class exactly, header
// included, so grayscott's 105 PACE points take 7 KB rather than 16.
func chunkCap(n int) int {
	return (pointChunk+1)>>(headChunks-min(n, headChunks)) - 1
}

// NewRecorder creates an empty recorder.
func NewRecorder(s *sim.Sim) *Recorder {
	return &Recorder{s: s, open: make(map[string]int)}
}

// AttachWMS subscribes to Savanna lifecycle events.
func (r *Recorder) AttachWMS(sv *wms.Savanna) {
	sv.OnEvent(func(ev wms.Event) {
		key := fmt.Sprintf("%s/%s#%d", ev.Workflow, ev.Task, ev.Instance.Incarnation)
		switch ev.Kind {
		case wms.TaskStarted:
			var nodes []string
			for _, id := range ev.Instance.Placement.Nodes() {
				nodes = append(nodes, string(id))
			}
			r.open[key] = len(r.Intervals)
			r.Intervals = append(r.Intervals, Interval{
				Workflow:    ev.Workflow,
				Task:        ev.Task,
				Incarnation: ev.Instance.Incarnation,
				Procs:       ev.Instance.Placement.Procs(),
				Nodes:       nodes,
				Start:       ev.At,
			})
		case wms.TaskEnded:
			if idx, ok := r.open[key]; ok {
				r.Intervals[idx].End = ev.At
				r.Intervals[idx].Final = ev.Instance.State()
				r.Intervals[idx].ExitCode = ev.Instance.ExitCode()
				delete(r.open, key)
			}
		}
	})
}

// AttachOrchestrator reads executed rounds from the orchestrator's arbiter
// from now on and, once a reader has declared a series, records what its
// Monitor server forwards.
func (r *Recorder) AttachOrchestrator(o *core.Orchestrator) {
	r.arb, r.monitor = o.Arbiter, o.Server
	if r.keep != nil {
		r.monitor.OnForward(r.forwarded)
	}
}

// Keep declares a reader's series: from now on the recorder keeps every
// forwarded metric whose key series accepts, beside those earlier readers
// declared. A reader declares before the world runs — a Variant.Configure
// hook is early enough — and EachMetric, Series and Dump visit only what
// was declared.
func (r *Recorder) Keep(series func(sensor.Key) bool) {
	if prev := r.keep; prev != nil {
		r.keep = func(k sensor.Key) bool { return prev(k) || series(k) }
		return
	}
	r.keep = series
	if r.monitor != nil {
		r.monitor.OnForward(r.forwarded)
	}
}

// rounds returns the run's executed arbitration rounds.
func (r *Recorder) rounds() []arbiter.Record {
	if r.arb == nil {
		return nil
	}
	return r.arb.Records()
}

// forwarded records the declared metrics of one batch the Monitor server
// sent to Decision.
func (r *Recorder) forwarded(ms []sensor.Metric) {
	for _, m := range ms {
		if !r.keep(m.Key) {
			continue
		}
		last := len(r.points) - 1
		if last < 0 || len(r.points[last]) == cap(r.points[last]) {
			r.points = append(r.points, make([]point, 0, chunkCap(len(r.points))))
			last++
		}
		r.points[last] = append(r.points[last], point{at: m.ObservedAt, value: m.Value, step: m.Step, series: m.Series})
	}
}

// EachMetric calls fn with every kept metric, in arrival order.
func (r *Recorder) EachMetric(fn func(MetricPoint)) {
	for _, chunk := range r.points {
		for _, pt := range chunk {
			fn(MetricPoint{At: pt.at, Key: pt.series.Key, Value: pt.value, Step: pt.step})
		}
	}
}

// CloseOpen marks still-running intervals as ending now (for reporting at
// the end of a horizon-bounded run).
func (r *Recorder) CloseOpen() {
	for key, idx := range r.open {
		r.Intervals[idx].End = r.s.Now()
		delete(r.open, key)
	}
}

// TaskIntervals returns the intervals of one task, in start order.
func (r *Recorder) TaskIntervals(workflow, taskName string) []Interval {
	return taskIntervals(r.Intervals, workflow, taskName)
}

func taskIntervals(ivs []Interval, workflow, taskName string) []Interval {
	var out []Interval
	for _, iv := range ivs {
		if iv.Workflow == workflow && iv.Task == taskName {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Series extracts one metric series (sensor at granularity for a task;
// empty task for workflow-level series).
func (r *Recorder) Series(workflow, taskName, sensorID string) []MetricPoint {
	var out []MetricPoint
	r.EachMetric(func(m MetricPoint) {
		if m.Key.Workflow == workflow && m.Key.Task == taskName && m.Key.Sensor == sensorID {
			out = append(out, m)
		}
	})
	return out
}

// Tasks lists the distinct (workflow, task) pairs seen, in first-start
// order.
func (r *Recorder) Tasks() [][2]string { return tasks(r.Intervals) }

func tasks(ivs []Interval) [][2]string {
	var out [][2]string
	seen := map[[2]string]bool{}
	for _, iv := range ivs {
		k := [2]string{iv.Workflow, iv.Task}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Gantt renders the run's ASCII Gantt chart (see gantt) up to now.
func (r *Recorder) Gantt(w io.Writer, width int) {
	rounds := r.rounds()
	windows := make([][2]sim.Time, len(rounds))
	for i, p := range rounds {
		windows[i] = [2]sim.Time{p.ReceivedAt, p.ExecutedAt}
	}
	gantt(w, width, r.s.Now(), r.Intervals, windows)
}

// gantt renders an ASCII Gantt chart of a run that ended at end: one row
// per task, '█' for running time (with the process count annotated per
// segment), '·' for idle, and a bottom row marking DYFLOW's plan-execution
// windows, each a round's (received, executed) instants, with '▼'.
func gantt(w io.Writer, width int, end sim.Time, ivs []Interval, windows [][2]sim.Time) {
	if width < 20 {
		width = 80
	}
	if end == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	col := func(t sim.Time) int {
		c := int(int64(t) * int64(width) / int64(end))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	rows := tasks(ivs)
	nameW := 0
	for _, k := range rows {
		if len(k[1]) > nameW {
			nameW = len(k[1])
		}
	}
	fmt.Fprintf(w, "%*s  0%s%v\n", nameW, "", strings.Repeat(" ", width-len(fmt.Sprint(end))-1), end.Round(time.Second))
	for _, k := range rows {
		row := []rune(strings.Repeat("·", width))
		var notes []string
		for _, iv := range taskIntervals(ivs, k[0], k[1]) {
			e := iv.End
			if e == 0 {
				e = end
			}
			c0, c1 := col(iv.Start), col(e)
			for c := c0; c <= c1; c++ {
				row[c] = '█'
			}
			if iv.Incarnation > 0 && c0 > 0 {
				row[c0] = '▐'
			}
			state := ""
			if iv.Final == task.Failed {
				state = fmt.Sprintf(" FAILED(%d)", iv.ExitCode)
			}
			notes = append(notes, fmt.Sprintf("#%d@%dp %v-%v%s", iv.Incarnation, iv.Procs, iv.Start.Round(time.Second), e.Round(time.Second), state))
		}
		fmt.Fprintf(w, "%*s  %s  %s\n", nameW, k[1], string(row), strings.Join(notes, ", "))
	}
	if len(windows) > 0 {
		row := []rune(strings.Repeat(" ", width))
		for _, win := range windows {
			for c := col(win[0]); c <= col(win[1]); c++ {
				row[c] = '▼'
			}
		}
		fmt.Fprintf(w, "%*s  %s  (DYFLOW adjustment windows)\n", nameW, "DYFLOW", string(row))
	}
}

// PlanSummary formats the arbitration rounds as a table.
func (r *Recorder) PlanSummary(w io.Writer) {
	plans := r.rounds()
	if len(plans) == 0 {
		fmt.Fprintln(w, "(no arbitration rounds)")
		return
	}
	fmt.Fprintf(w, "%-4s %-10s %-12s %-12s %-12s %s\n", "#", "received", "plan", "response", "status", "ops")
	for i, p := range plans {
		status := "ok"
		if p.Err != "" {
			status = "FAILED"
		}
		var ops []string
		for _, op := range p.Plan.Ops {
			ops = append(ops, op.String())
		}
		fmt.Fprintf(w, "%-4d %-10v %-12v %-12v %-12s %s\n",
			i+1,
			p.ReceivedAt.Round(time.Millisecond),
			(p.PlannedAt - p.ReceivedAt).Round(time.Millisecond),
			p.ResponseTime().Round(time.Millisecond),
			status,
			strings.Join(ops, " "))
	}
}
