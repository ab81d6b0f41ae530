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
// key replaced by its index in Recorder.keys. An xgc run forwards eleven
// thousand points over six series, and a sensor.Key is four strings.
type point struct {
	at    sim.Time
	value float64
	step  int
	key   uint32
}

// Recorder accumulates the observable history of a run: task incarnation
// intervals, arbitration rounds, and the metric series the Decision stage
// received. Everything the Gantt charts and experiment reports print comes
// from here.
type Recorder struct {
	s         *sim.Sim
	Intervals []Interval
	open      map[string]int // instance key -> index into Intervals
	Plans     []arbiter.Record

	// The forwarded metrics in arrival order, read through EachMetric. They
	// are held in chunks of pointChunk so that recording one more never
	// copies the ones already held.
	points [][]point
	keys   []sensor.Key          // distinct series keys, in first-arrival order
	keyIdx map[sensor.Key]uint32 // key -> its index in keys
}

const pointChunk = 512 // 16 KB

// NewRecorder creates an empty recorder.
func NewRecorder(s *sim.Sim) *Recorder {
	return &Recorder{s: s, open: make(map[string]int), keyIdx: make(map[sensor.Key]uint32)}
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

// AttachOrchestrator subscribes to arbitration rounds and forwarded
// metrics.
func (r *Recorder) AttachOrchestrator(o *core.Orchestrator) {
	o.Arbiter.OnPlan(func(rec arbiter.Record) { r.Plans = append(r.Plans, rec) })
	o.Server.OnForward(r.forwarded)
}

// forwarded records one batch the Monitor server sent to Decision.
func (r *Recorder) forwarded(ms []sensor.Metric) {
	for _, m := range ms {
		k, ok := r.keyIdx[m.Key]
		if !ok {
			k = uint32(len(r.keys))
			r.keys = append(r.keys, m.Key)
			r.keyIdx[m.Key] = k
		}
		last := len(r.points) - 1
		if last < 0 || len(r.points[last]) == pointChunk {
			r.points = append(r.points, make([]point, 0, pointChunk))
			last++
		}
		r.points[last] = append(r.points[last], point{at: m.ObservedAt, value: m.Value, step: m.Step, key: k})
	}
}

// EachMetric calls fn with every forwarded metric, in arrival order.
func (r *Recorder) EachMetric(fn func(MetricPoint)) {
	for _, chunk := range r.points {
		for _, pt := range chunk {
			fn(MetricPoint{At: pt.at, Key: r.keys[pt.key], Value: pt.value, Step: pt.step})
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
	var out []Interval
	for _, iv := range r.Intervals {
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
func (r *Recorder) Tasks() [][2]string {
	var out [][2]string
	seen := map[[2]string]bool{}
	for _, iv := range r.Intervals {
		k := [2]string{iv.Workflow, iv.Task}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Gantt renders an ASCII Gantt chart of the run: one row per task, '█' for
// running time (with the process count annotated per segment), '·' for
// idle, and a bottom row marking DYFLOW's plan-execution windows with '▼'.
func (r *Recorder) Gantt(w io.Writer, width int) {
	if width < 20 {
		width = 80
	}
	end := r.s.Now()
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
	nameW := 0
	for _, k := range r.Tasks() {
		if len(k[1]) > nameW {
			nameW = len(k[1])
		}
	}
	fmt.Fprintf(w, "%*s  0%s%v\n", nameW, "", strings.Repeat(" ", width-len(fmt.Sprint(end))-1), end.Round(time.Second))
	for _, k := range r.Tasks() {
		row := []rune(strings.Repeat("·", width))
		var notes []string
		for _, iv := range r.TaskIntervals(k[0], k[1]) {
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
	if len(r.Plans) > 0 {
		row := []rune(strings.Repeat(" ", width))
		for _, p := range r.Plans {
			for c := col(p.ReceivedAt); c <= col(p.ExecutedAt); c++ {
				row[c] = '▼'
			}
		}
		fmt.Fprintf(w, "%*s  %s  (DYFLOW adjustment windows)\n", nameW, "DYFLOW", string(row))
	}
}

// PlanSummary formats the arbitration rounds as a table.
func (r *Recorder) PlanSummary(w io.Writer) {
	if len(r.Plans) == 0 {
		fmt.Fprintln(w, "(no arbitration rounds)")
		return
	}
	fmt.Fprintf(w, "%-4s %-10s %-12s %-12s %-12s %s\n", "#", "received", "plan", "response", "status", "ops")
	for i, p := range r.Plans {
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
