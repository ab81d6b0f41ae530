package exp

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/trace"
)

// The Perfetto export lays a run out as a Chrome trace-event JSON document
// (loadable at ui.perfetto.dev or chrome://tracing): one "cluster" process
// with a track per node carrying every task incarnation placed there plus
// kill/heal instants, and one "orchestrator" process with tracks for plan
// windows, actuation operation spans, and suggestion lifecycle spans.
const (
	pidCluster      = 1
	pidOrchestrator = 2

	tidPlans       = 1
	tidActuation   = 2
	tidSuggestions = 3
)

// perfettoEvent is one trace-event record. Ph "X" is a complete span
// (ts+dur), "i" an instant, "M" metadata. A span's Dur is at least 1, so
// omitempty drops it from instants and metadata only.
type perfettoEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	S    string `json:"s,omitempty"`
	Args any    `json:"args,omitempty"`
}

// The args of each event kind. Their fields are in key order, so they
// encode as the map with those keys would.
type (
	metaArgs struct {
		Name string `json:"name"`
	}
	taskArgs struct {
		ExitCode    *int   `json:"exit_code,omitempty"` // failed incarnations only
		Final       string `json:"final"`
		Incarnation int    `json:"incarnation"`
		Procs       int    `json:"procs"`
		Workflow    string `json:"workflow"`
	}
	planArgs struct {
		Aborted  int      `json:"aborted"`
		Applied  int      `json:"applied"`
		Error    string   `json:"error,omitempty"`
		Ops      []string `json:"ops"`
		Workflow string   `json:"workflow"`
	}
	actuationArgs struct {
		Attempts int    `json:"attempts"`
		Error    string `json:"error,omitempty"`
		Workflow string `json:"workflow"`
	}
	suggestionArgs struct {
		Complete bool   `json:"complete"`
		Dropped  string `json:"dropped,omitempty"`
		Sensor   string `json:"sensor"`
		Workflow string `json:"workflow"`
	}
)

func usec(t sim.Time) int64 { return int64(t / sim.Time(time.Microsecond)) }

func dur(start, end sim.Time) int64 {
	return max(usec(end)-usec(start), 1) // zero-width spans render invisible; clamp to one tick
}

// WritePerfetto renders the world's recorded run as a Chrome trace-event
// JSON timeline, with the chaos campaign's kill/heal events where the world
// ran one. Still-open intervals are drawn to the current simulation
// instant. The output is deterministic for a deterministic run.
func WritePerfetto(out io.Writer, w *World) error {
	doc, err := perfettoJSON(w)
	if err != nil {
		return err
	}
	_, err = out.Write(doc)
	return err
}

// perfettoJSON is WritePerfetto's document in a slice of its own.
func perfettoJSON(w *World) ([]byte, error) {
	var r perfettoRender
	return r.append(nil, w)
}

// append appends WritePerfetto's document to dst: the trace-event object
// form {"traceEvents":[...],"displayTimeUnit":"ms"} and a newline, as
// json.Encoder writes it. When dst lacks the room, the document goes into
// a copy of dst of exactly the size it needs.
//
// The events are encoded one at a time, twice: once to count the bytes,
// once into dst. One call for the whole document (≈ 100 KB for an xgc
// run) would grow one of encoding/json's pooled buffers to its size, and
// whether the next run found that buffer again would be up to the
// scheduler and the GC, so a run's allocation would vary by ≈ 0.25 MB.
// An event's buffer is a few hundred bytes, and with struct args an event
// encodes without allocating.
//
// No event list is built: both passes walk the world's records and emit
// each event into the same perfettoEvent. The node tracks, the names it
// joins and the op labels go into r's maps and slices, which a later
// render reuses; r keeps nothing of w once append returns.
func (r *perfettoRender) append(dst []byte, w *World) ([]byte, error) {
	r.reset(w)
	defer r.reset(nil)
	const head, tail = `{"traceEvents":[`, "],\"displayTimeUnit\":\"ms\"}\n"
	var size byteCount
	if err := r.emit(json.NewEncoder(&size)); err != nil {
		return nil, err
	}
	doc := joinWriter(growExact(dst, len(head)+int(size)-1+len(tail))) // n events: n newlines, n-1 commas
	doc = append(doc, head...)
	if err := r.emit(json.NewEncoder(&doc)); err != nil {
		return nil, err
	}
	return append(doc[:len(doc)-1], tail...), nil // the last event's comma
}

// perfettoRender is one render's sources, what it derives from them once,
// and the values each event is emitted into: one event, and one args value
// per kind.
type perfettoRender struct {
	now   sim.Time
	ivs   []Interval
	chaos []cluster.CampaignEvent
	plans []arbiter.Record
	tr    *trace.Recorder

	nodes   []string       // the node tracks, tid i+1 for nodes[i]
	nodeTid map[string]int // and back
	names   map[[3]string]string

	enc      *json.Encoder
	err      error
	ev       perfettoEvent
	meta     metaArgs
	task     taskArgs
	exitCode int
	plan     planArgs
	// labels holds every plan op's label in plan order, built once per
	// render for both passes, out of the bytes in labelBuf, which end at
	// labelEnds.
	labels    []string
	labelBuf  []byte
	labelEnds []int
	act       actuationArgs
	sugg      suggestionArgs
}

// reset empties r, keeping its maps' and slices' storage, and derives
// what both passes over w share; a nil w leaves r empty.
func (r *perfettoRender) reset(w *World) {
	clear(r.nodeTid)
	clear(r.names)
	clear(r.labels)
	*r = perfettoRender{nodes: r.nodes[:0], nodeTid: r.nodeTid, names: r.names,
		labels: r.labels[:0], labelBuf: r.labelBuf[:0], labelEnds: r.labelEnds[:0]}
	if w == nil {
		return
	}
	if r.nodeTid == nil {
		r.nodeTid, r.names = map[string]int{}, map[[3]string]string{}
	}
	r.now, r.ivs, r.plans, r.tr = w.Sim.Now(), w.Rec.Intervals, w.Plans(), w.Trace
	if w.campaign != nil {
		r.chaos = w.campaign.Events()
	}

	// Node tracks: deterministic tid assignment in sorted node order over
	// every node that appears in the run (placements and chaos events).
	for _, iv := range r.ivs {
		for _, n := range iv.Nodes {
			r.nodeTid[n] = 0
		}
	}
	for _, ev := range r.chaos {
		r.nodeTid[string(ev.Node)] = 0
	}
	for n := range r.nodeTid {
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	for i, n := range r.nodes {
		r.nodeTid[n] = i + 1
	}

	// Op labels: appended into one buffer, made one string, and cut.
	for i := range r.plans {
		for _, op := range r.plans[i].Plan.Ops {
			r.labelBuf = op.AppendLabel(r.labelBuf)
			r.labelEnds = append(r.labelEnds, len(r.labelBuf))
		}
	}
	all := string(r.labelBuf)
	start := 0
	for _, end := range r.labelEnds {
		r.labels = append(r.labels, all[start:end])
		start = end
	}
}

// name is a+sep+b, joined once per render.
func (r *perfettoRender) name(a, sep, b string) string {
	key := [3]string{a, sep, b}
	s, ok := r.names[key]
	if !ok {
		s = a + sep + b
		r.names[key] = s
	}
	return s
}

// put encodes the event in r.ev, unless an earlier one failed.
func (r *perfettoRender) put() {
	if r.err == nil {
		r.err = r.enc.Encode(&r.ev)
	}
}

func (r *perfettoRender) putMeta(pid, tid int, kind, name string) {
	r.meta.Name = name
	r.ev = perfettoEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: &r.meta}
	r.put()
}

// emit encodes every event of the document with enc, in document order.
func (r *perfettoRender) emit(enc *json.Encoder) error {
	r.enc, r.err = enc, nil
	r.putMeta(pidCluster, 0, "process_name", "cluster")
	for i, n := range r.nodes {
		r.putMeta(pidCluster, i+1, "thread_name", n)
	}
	r.putMeta(pidOrchestrator, 0, "process_name", "dyflow")
	r.putMeta(pidOrchestrator, tidPlans, "thread_name", "plans")
	r.putMeta(pidOrchestrator, tidActuation, "thread_name", "actuation")
	r.putMeta(pidOrchestrator, tidSuggestions, "thread_name", "suggestions")

	// Task incarnations, one span per occupied node.
	for i := range r.ivs {
		iv := &r.ivs[i]
		end := iv.End
		if end == 0 {
			end = r.now
		}
		r.task = taskArgs{Workflow: iv.Workflow, Incarnation: iv.Incarnation,
			Procs: iv.Procs, Final: iv.Final.String()}
		if iv.Final == task.Failed {
			r.exitCode = iv.ExitCode
			r.task.ExitCode = &r.exitCode
		}
		for _, n := range iv.Nodes {
			r.ev = perfettoEvent{
				Name: iv.Task, Cat: "task", Ph: "X",
				Ts: usec(iv.Start), Dur: dur(iv.Start, end),
				Pid: pidCluster, Tid: r.nodeTid[n], Args: &r.task,
			}
			r.put()
		}
	}

	// Chaos kill/heal instants on the victim node's track.
	for _, c := range r.chaos {
		r.ev = perfettoEvent{
			Name: r.name(c.Kind, " ", string(c.Node)), Cat: "chaos", Ph: "i",
			Ts: usec(c.At), Pid: pidCluster, Tid: r.nodeTid[string(c.Node)],
			S: "p",
		}
		r.put()
	}

	// Plan windows: suggestion-batch arrival to actuation completion.
	labels := r.labels
	for i := range r.plans {
		p := &r.plans[i]
		r.plan = planArgs{Workflow: p.Workflow, Applied: p.AppliedOps, Aborted: p.AbortedOps, Error: p.Err}
		if n := len(p.Plan.Ops); n > 0 { // no ops encode as null
			r.plan.Ops, labels = labels[:n:n], labels[n:]
		}
		r.ev = perfettoEvent{
			Name: r.name(p.Workflow, " plan", ""), Cat: "plan", Ph: "X",
			Ts: usec(p.ReceivedAt), Dur: dur(p.ReceivedAt, p.ExecutedAt),
			Pid: pidOrchestrator, Tid: tidPlans, Args: &r.plan,
		}
		r.put()
	}

	// Actuation operation spans (the stop/start decomposition of §4.6),
	// read in place in the flight recorder.
	r.tr.VisitOps(func(op *trace.Op) {
		r.act = actuationArgs{Workflow: op.Workflow, Attempts: op.Attempts, Error: op.Err}
		r.ev = perfettoEvent{
			Name: r.name(op.Kind, " ", op.Task), Cat: "actuation", Ph: "X",
			Ts: usec(op.StartedAt), Dur: dur(op.StartedAt, op.EndedAt),
			Pid: pidOrchestrator, Tid: tidActuation, Args: &r.act,
		}
		r.put()
	})

	// Suggestion lifecycle spans: data generation to actuation (or to the
	// last stamped stage for dropped/incomplete suggestions), read in place
	// in the flight recorder.
	r.tr.VisitSpans(func(sp *trace.Span) {
		start := sp.GeneratedAt
		if start == 0 {
			start = sp.DecidedAt
		}
		end := max(sp.DecidedAt, sp.ReceivedAt, sp.PlannedAt, sp.ExecutedAt)
		r.sugg = suggestionArgs{Workflow: sp.Workflow, Sensor: sp.Sensor,
			Complete: sp.Complete(), Dropped: sp.Dropped}
		r.ev = perfettoEvent{
			Name: r.name(sp.Policy, ":", sp.Action), Cat: "suggestion", Ph: "X",
			Ts: usec(start), Dur: dur(start, end),
			Pid: pidOrchestrator, Tid: tidSuggestions, Args: &r.sugg,
		}
		r.put()
	})
	return r.err
}

// growExact returns dst with room for n more bytes: dst itself when it has
// the room, else a copy of it in a slice of exactly len(dst)+n.
func growExact(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// byteCount counts what is written to it.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// joinWriter appends the values a json.Encoder writes to it, each one's
// trailing newline made the comma that separates it from the next.
type joinWriter []byte

func (w *joinWriter) Write(p []byte) (int, error) {
	*w = append(append(*w, p[:len(p)-1]...), ',')
	return len(p), nil
}
