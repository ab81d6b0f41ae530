package exp

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/core/actuate"
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

func meta(pid, tid int, kind, name string) perfettoEvent {
	return perfettoEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: &metaArgs{Name: name},
	}
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

// perfettoJSON is WritePerfetto's document, the trace-event object form
// {"traceEvents":[...],"displayTimeUnit":"ms"} and a newline, as
// json.Encoder writes it.
//
// The events are encoded one at a time, twice: once to count the bytes,
// once into a slice of exactly that size. One call for the whole document
// (≈ 100 KB for an xgc run) would grow one of encoding/json's pooled
// buffers to its size, and whether the next run found that buffer again
// would be up to the scheduler and the GC, so a run's allocation would
// vary by ≈ 0.25 MB. An event's buffer is a few hundred bytes, and with
// struct args an event encodes without allocating.
//
// The event list is sized exactly before it is filled, and the suggestion
// spans are read in place in the flight recorder, not copied out of it.
func perfettoJSON(w *World) ([]byte, error) {
	now := w.Sim.Now()
	var chaos []cluster.CampaignEvent
	if w.campaign != nil {
		chaos = w.campaign.Events()
	}
	plans := w.Plans()
	var tr *trace.Recorder
	var acts []actuate.OpRecord
	if w.Orch != nil {
		tr, acts = w.Orch.Trace, w.Orch.Executor.Records()
	}

	// Node tracks: deterministic tid assignment in sorted node order over
	// every node that appears in the run (placements and chaos events).
	nodeSet := map[string]bool{}
	for _, iv := range w.Rec.Intervals {
		for _, n := range iv.Nodes {
			nodeSet[n] = true
		}
	}
	for _, ev := range chaos {
		nodeSet[string(ev.Node)] = true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	nodeTid := make(map[string]int, len(nodes))
	placed := 0
	for _, iv := range w.Rec.Intervals {
		placed += len(iv.Nodes)
	}
	nspans := tr.NumSpans()
	evs := make([]perfettoEvent, 0, 1+len(nodes)+4+placed+len(chaos)+len(plans)+len(acts)+nspans)
	evs = append(evs, meta(pidCluster, 0, "process_name", "cluster"))
	for i, n := range nodes {
		nodeTid[n] = i + 1
		evs = append(evs, meta(pidCluster, i+1, "thread_name", n))
	}

	evs = append(evs,
		meta(pidOrchestrator, 0, "process_name", "dyflow"),
		meta(pidOrchestrator, tidPlans, "thread_name", "plans"),
		meta(pidOrchestrator, tidActuation, "thread_name", "actuation"),
		meta(pidOrchestrator, tidSuggestions, "thread_name", "suggestions"),
	)

	// Task incarnations, one span per occupied node.
	for _, iv := range w.Rec.Intervals {
		end := iv.End
		if end == 0 {
			end = now
		}
		name := iv.Task
		args := &taskArgs{Workflow: iv.Workflow, Incarnation: iv.Incarnation,
			Procs: iv.Procs, Final: iv.Final.String()}
		if iv.Final == task.Failed {
			code := iv.ExitCode
			args.ExitCode = &code
		}
		for _, n := range iv.Nodes {
			evs = append(evs, perfettoEvent{
				Name: name, Cat: "task", Ph: "X",
				Ts: usec(iv.Start), Dur: dur(iv.Start, end),
				Pid: pidCluster, Tid: nodeTid[n], Args: args,
			})
		}
	}

	// Chaos kill/heal instants on the victim node's track.
	for _, ev := range chaos {
		evs = append(evs, perfettoEvent{
			Name: ev.Kind + " " + string(ev.Node), Cat: "chaos", Ph: "i",
			Ts: usec(ev.At), Pid: pidCluster, Tid: nodeTid[string(ev.Node)],
			S: "p",
		})
	}

	// Plan windows: suggestion-batch arrival to actuation completion.
	for _, p := range plans {
		var ops []string
		for _, op := range p.Plan.Ops {
			ops = append(ops, op.String())
		}
		evs = append(evs, perfettoEvent{
			Name: p.Workflow + " plan", Cat: "plan", Ph: "X",
			Ts: usec(p.ReceivedAt), Dur: dur(p.ReceivedAt, p.ExecutedAt),
			Pid: pidOrchestrator, Tid: tidPlans,
			Args: &planArgs{Workflow: p.Workflow, Ops: ops,
				Applied: p.AppliedOps, Aborted: p.AbortedOps, Error: p.Err},
		})
	}

	// Actuation operation spans (the stop/start decomposition of §4.6).
	for _, rec := range acts {
		evs = append(evs, perfettoEvent{
			Name: rec.Op.Kind.String() + " " + rec.Op.Task, Cat: "actuation", Ph: "X",
			Ts: usec(rec.StartedAt), Dur: dur(rec.StartedAt, rec.EndedAt),
			Pid: pidOrchestrator, Tid: tidActuation,
			Args: &actuationArgs{Workflow: rec.Op.Workflow, Attempts: rec.Attempts, Error: rec.Err},
		})
	}

	// Suggestion lifecycle spans: data generation to actuation (or to the
	// last stamped stage for dropped/incomplete suggestions). A span's
	// args live in one slice, and its name is joined once per policy and
	// action.
	args := make([]suggestionArgs, 0, nspans)
	names := map[[2]string]string{}
	tr.VisitSpans(func(sp *trace.Span) {
		start := sp.GeneratedAt
		if start == 0 {
			start = sp.DecidedAt
		}
		end := max(sp.DecidedAt, sp.ReceivedAt, sp.PlannedAt, sp.ExecutedAt)
		key := [2]string{sp.Policy, sp.Action}
		name, ok := names[key]
		if !ok {
			name = sp.Policy + ":" + sp.Action
			names[key] = name
		}
		args = append(args, suggestionArgs{Workflow: sp.Workflow, Sensor: sp.Sensor,
			Complete: sp.Complete(), Dropped: sp.Dropped})
		evs = append(evs, perfettoEvent{
			Name: name, Cat: "suggestion", Ph: "X",
			Ts: usec(start), Dur: dur(start, end),
			Pid: pidOrchestrator, Tid: tidSuggestions,
			Args: &args[len(args)-1],
		})
	})

	const head, tail = `{"traceEvents":[`, "],\"displayTimeUnit\":\"ms\"}\n"
	var size byteCount
	enc := json.NewEncoder(&size)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return nil, err
		}
	}
	doc := joinWriter(make([]byte, 0, len(head)+int(size)-1+len(tail))) // n events: n newlines, n-1 commas
	doc = append(doc, head...)
	enc = json.NewEncoder(&doc)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return nil, err
		}
	}
	return append(doc[:len(doc)-1], tail...), nil // the last event's comma
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
