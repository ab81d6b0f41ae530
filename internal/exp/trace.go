package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

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
// Decision stage received them. With the world's round log, which it reads
// but does not own, that is everything the Gantt charts and experiment
// reports print.
type Recorder struct {
	s         *sim.Sim
	Intervals []Interval
	open      map[instanceKey]int // the open intervals' indices into Intervals
	// rounds is the world's round log (World.Plans reads the same one).
	rounds *arbiter.Rounds
	// monitor is the attached orchestrator's Monitor server; nil for a
	// baseline run.
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

// instanceKey names one incarnation of a task.
type instanceKey struct {
	workflow, task string
	incarnation    int
}

// NewRecorder creates an empty recorder over the world's round log.
func NewRecorder(s *sim.Sim, rounds *arbiter.Rounds) *Recorder {
	return &Recorder{s: s, open: make(map[instanceKey]int), rounds: rounds}
}

// AttachWMS subscribes to Savanna lifecycle events.
func (r *Recorder) AttachWMS(sv *wms.Savanna) {
	sv.OnEvent(func(ev wms.Event) {
		key := instanceKey{ev.Workflow, ev.Task, ev.Instance.Incarnation}
		switch ev.Kind {
		case wms.TaskStarted:
			ids := ev.Instance.Placement.Nodes()
			nodes := make([]string, len(ids))
			for i, id := range ids {
				nodes[i] = string(id)
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

// AttachOrchestrator records, once a reader has declared a series, what
// the orchestrator's Monitor server forwards from now on.
func (r *Recorder) AttachOrchestrator(o *core.Orchestrator) {
	r.monitor = o.Server
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

// tasks lists the distinct (workflow, task) pairs of ivs, in first-start
// order. A world has a handful of tasks, so a scan of the list finds a
// pair sooner than a map would be built.
func tasks(ivs []Interval) [][2]string {
	var out [][2]string
	for _, iv := range ivs {
		if k := [2]string{iv.Workflow, iv.Task}; !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// Gantt renders the run's ASCII Gantt chart (see gantt) up to now.
func (r *Recorder) Gantt(w io.Writer, width int) {
	rounds := *r.rounds
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
	// Every row is drawn into row and encoded into line, and its task's
	// intervals are indexed in sel in start order, as taskIntervals would
	// list them; all three are reused. No rune is wider than three bytes.
	row := make([]rune, width)
	line := make([]byte, 0, 3*width)
	var sel []int
	for _, k := range rows {
		fill(row, '·')
		sel = sel[:0]
		for i := range ivs {
			if ivs[i].Workflow == k[0] && ivs[i].Task == k[1] {
				sel = append(sel, i)
			}
		}
		sort.Slice(sel, func(a, b int) bool { return ivs[sel[a]].Start < ivs[sel[b]].Start })
		for _, i := range sel {
			iv := &ivs[i]
			c0, c1 := col(iv.Start), col(iv.endOr(end))
			for c := c0; c <= c1; c++ {
				row[c] = '█'
			}
			if iv.Incarnation > 0 && c0 > 0 {
				row[c0] = '▐'
			}
		}
		line = appendRunes(line[:0], row)
		fmt.Fprintf(w, "%*s  %s  ", nameW, k[1], line)
		for n, i := range sel {
			iv := &ivs[i]
			if n > 0 {
				io.WriteString(w, ", ")
			}
			fmt.Fprintf(w, "#%d@%dp %v-%v", iv.Incarnation, iv.Procs, iv.Start.Round(time.Second), iv.endOr(end).Round(time.Second))
			if iv.Final == task.Failed {
				fmt.Fprintf(w, " FAILED(%d)", iv.ExitCode)
			}
		}
		io.WriteString(w, "\n")
	}
	if len(windows) > 0 {
		fill(row, ' ')
		for _, win := range windows {
			for c := col(win[0]); c <= col(win[1]); c++ {
				row[c] = '▼'
			}
		}
		line = appendRunes(line[:0], row)
		fmt.Fprintf(w, "%*s  %s  (DYFLOW adjustment windows)\n", nameW, "DYFLOW", line)
	}
}

// endOr is the interval's end, or end while it is still running.
func (iv *Interval) endOr(end sim.Time) sim.Time {
	if iv.End == 0 {
		return end
	}
	return iv.End
}

// fill sets every cell of row to r.
func fill(row []rune, r rune) {
	for i := range row {
		row[i] = r
	}
}

// appendRunes appends row's UTF-8 encoding to line.
func appendRunes(line []byte, row []rune) []byte {
	for _, r := range row {
		line = utf8.AppendRune(line, r)
	}
	return line
}

// PlanSummary formats the arbitration rounds as a table.
func (r *Recorder) PlanSummary(w io.Writer) {
	plans := *r.rounds
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
