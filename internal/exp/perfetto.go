package exp

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"dyflow/internal/cluster"
	"dyflow/internal/sim"
	"dyflow/internal/task"
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
// (ts+dur), "i" an instant, "M" metadata.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoDoc is the trace-event JSON object form.
type perfettoDoc struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

func usec(t sim.Time) int64 { return int64(t / sim.Time(time.Microsecond)) }

func dur(start, end sim.Time) *int64 {
	d := usec(end) - usec(start)
	if d < 1 {
		d = 1 // zero-width spans render invisible; clamp to one tick
	}
	return &d
}

func meta(pid, tid int, kind, name string) perfettoEvent {
	return perfettoEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// WritePerfetto renders the world's recorded run as a Chrome trace-event
// JSON timeline, with the chaos campaign's kill/heal events where the world
// ran one. Still-open intervals are drawn to the current simulation
// instant. The output is deterministic for a deterministic run.
func WritePerfetto(out io.Writer, w *World) error {
	now := w.Sim.Now()
	var evs []perfettoEvent
	var chaos []cluster.CampaignEvent
	if w.campaign != nil {
		chaos = w.campaign.Events()
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
		args := map[string]any{
			"workflow":    iv.Workflow,
			"incarnation": iv.Incarnation,
			"procs":       iv.Procs,
			"final":       iv.Final.String(),
		}
		if iv.Final == task.Failed {
			args["exit_code"] = iv.ExitCode
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
	for _, p := range w.Plans() {
		var ops []string
		for _, op := range p.Plan.Ops {
			ops = append(ops, op.String())
		}
		args := map[string]any{
			"workflow": p.Workflow,
			"ops":      ops,
			"applied":  p.AppliedOps,
			"aborted":  p.AbortedOps,
		}
		if p.Err != "" {
			args["error"] = p.Err
		}
		evs = append(evs, perfettoEvent{
			Name: p.Workflow + " plan", Cat: "plan", Ph: "X",
			Ts: usec(p.ReceivedAt), Dur: dur(p.ReceivedAt, p.ExecutedAt),
			Pid: pidOrchestrator, Tid: tidPlans, Args: args,
		})
	}

	// Actuation operation spans (the stop/start decomposition of §4.6).
	if w.Orch != nil {
		for _, rec := range w.Orch.Executor.Records() {
			args := map[string]any{
				"workflow": rec.Op.Workflow,
				"attempts": rec.Attempts,
			}
			if rec.Err != "" {
				args["error"] = rec.Err
			}
			evs = append(evs, perfettoEvent{
				Name: rec.Op.Kind.String() + " " + rec.Op.Task, Cat: "actuation", Ph: "X",
				Ts: usec(rec.StartedAt), Dur: dur(rec.StartedAt, rec.EndedAt),
				Pid: pidOrchestrator, Tid: tidActuation, Args: args,
			})
		}

		// Suggestion lifecycle spans: data generation to actuation (or to
		// the last stamped stage for dropped/incomplete suggestions).
		for _, sp := range w.Orch.Trace.Spans() {
			start := sp.GeneratedAt
			if start == 0 {
				start = sp.DecidedAt
			}
			end := sp.DecidedAt
			for _, t := range []sim.Time{sp.ReceivedAt, sp.PlannedAt, sp.ExecutedAt} {
				if t > end {
					end = t
				}
			}
			args := map[string]any{
				"workflow": sp.Workflow,
				"sensor":   sp.Sensor,
				"complete": sp.Complete(),
			}
			if sp.Dropped != "" {
				args["dropped"] = sp.Dropped
			}
			evs = append(evs, perfettoEvent{
				Name: sp.Policy + ":" + sp.Action, Cat: "suggestion", Ph: "X",
				Ts: usec(start), Dur: dur(start, end),
				Pid: pidOrchestrator, Tid: tidSuggestions, Args: args,
			})
		}
	}

	enc := json.NewEncoder(out)
	return enc.Encode(perfettoDoc{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
