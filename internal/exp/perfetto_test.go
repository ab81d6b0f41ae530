package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/task"
	"dyflow/internal/trace"
)

// TestPerfettoChaosTrace renders a full chaos campaign as a Chrome
// trace-event document and checks its structure: valid JSON, metadata
// naming every track, monotone non-negative timestamps, one span per
// (incarnation, node) placement, plan/actuation/suggestion tracks
// populated, one instant per chaos event — and byte-identical output on
// re-render (the structural golden).
func TestPerfettoChaosTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign is slow")
	}
	res, err := RunChaos(1, apps.Summit, DefaultChaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, res.W); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	counts := map[string]int{}
	threads := map[[2]int]string{}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				procs[ev.Pid] = ev.Args["name"].(string)
			case "thread_name":
				threads[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"].(string)
			}
		case "X":
			if ev.Ts < 0 || ev.Dur == nil || *ev.Dur < 1 {
				t.Fatalf("bad span %q: ts=%d dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
			if threads[[2]int{ev.Pid, ev.Tid}] == "" {
				t.Fatalf("span %q on unnamed track %d/%d", ev.Name, ev.Pid, ev.Tid)
			}
			counts["span:"+threads[[2]int{ev.Pid, ev.Tid}]]++
			counts["spans"]++
		case "i":
			counts["instants"]++
		default:
			t.Fatalf("unknown phase %q", ev.Ph)
		}
	}
	if procs[1] != "cluster" || procs[2] != "dyflow" {
		t.Fatalf("process names = %v", procs)
	}

	// Every (incarnation, node) placement is one task span.
	wantTask := 0
	for _, iv := range res.W.Rec.Intervals {
		wantTask += len(iv.Nodes)
	}
	wantPlans := len(res.W.Plans())
	wantOps := len(recordedOps(res.W.Trace))
	wantSugg := len(res.W.Orch.Trace.Spans())
	if got := counts["span:plans"]; got != wantPlans {
		t.Fatalf("plan spans = %d, want %d", got, wantPlans)
	}
	if got := counts["span:actuation"]; got != wantOps {
		t.Fatalf("actuation spans = %d, want %d", got, wantOps)
	}
	if got := counts["span:suggestions"]; got != wantSugg {
		t.Fatalf("suggestion spans = %d, want %d", got, wantSugg)
	}
	if got := counts["spans"] - wantPlans - wantOps - wantSugg; got != wantTask {
		t.Fatalf("task spans = %d, want %d (one per incarnation-node)", got, wantTask)
	}
	if got := counts["instants"]; got != len(res.Events) {
		t.Fatalf("chaos instants = %d, want %d", got, len(res.Events))
	}
	if wantPlans == 0 || wantOps == 0 || wantSugg == 0 || counts["instants"] == 0 {
		t.Fatalf("chaos run left a track empty: %v", counts)
	}

	// Byte-identical re-render: the exporter is deterministic.
	var again bytes.Buffer
	if err := WritePerfetto(&again, res.W); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-render differs")
	}
}

// TestPerfettoAllocationIgnoresJSONPool renders xgc's document, the
// des-heavy workload's artifact, with encoding/json's buffer pools warm and
// then emptied by two GCs: the two renders must allocate about the same.
// Encoding the document in one call allocated ≈ 250 KB more when the pool
// had lost its buffer. The document itself is allocated once, at its size,
// and beside it the render allocates only its node tracks and the names it
// joins: building an event list first cost ≈ 88 KB more.
func TestPerfettoAllocationIgnoresJSONPool(t *testing.T) {
	checkRenderAllocation(t, func(w *World) ([]byte, error) { return perfettoJSON(w) }, 16<<10, 16<<10)
}

// TestMetricsAllocationIgnoresJSONPool is the same for xgc's metrics
// document, which the registry writes without encoding/json: a render
// allocates the document and at most 2 KB beside it, whatever the pool
// holds. Indenting a marshalled snapshot cost ≈ 67 KB more.
func TestMetricsAllocationIgnoresJSONPool(t *testing.T) {
	checkRenderAllocation(t, func(w *World) ([]byte, error) { return w.Metrics.JSON() }, 2<<10, 0)
}

// checkRenderAllocation renders a document of a finished xgc world once
// to warm encoding/json's type caches and buffer pools, then with the
// pools warm and emptied by two GCs. Each render must return an exactly
// sized slice; the last two must allocate at most slack bytes beside it
// and differ by at most drift.
func checkRenderAllocation(t *testing.T, render func(*World) ([]byte, error), slack, drift int64) {
	var w *World
	if _, err := runXGC(1, apps.Summit, Variant{Configure: func(x *World) error { w = x; return nil }}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	measure := func() (alloc, size int64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		doc, err := render(w)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if cap(doc) != len(doc) {
			t.Fatalf("document has capacity %d for %d bytes, want it exactly sized", cap(doc), len(doc))
		}
		return int64(ms.TotalAlloc - before), int64(len(doc))
	}
	measure()
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	warm, size := measure()
	runtime.GC()
	runtime.GC()
	cold, _ := measure()
	t.Logf("a %d B document: the render allocated %d B with a warm pool and %d B with an empty one", size, warm, cold)
	if max(warm, cold) > size+slack {
		t.Fatalf("render allocated %d B for a %d B document, want at most %d B beside it", max(warm, cold), size, slack)
	}
	if diff := cold - warm; diff > drift || diff < -drift {
		t.Fatalf("render allocated %d B with a warm pool and %d B with an empty one", warm, cold)
	}
}

// recordedOps returns the actuation ops tr recorded, in execution order.
func recordedOps(tr *trace.Recorder) []trace.Op {
	var out []trace.Op
	tr.VisitOps(func(op *trace.Op) { out = append(out, *op) })
	return out
}

// perfettoReference is the Perfetto document as the exporter rendered it
// before it emitted events straight into the document: every event built
// into one list first, then encoded with one json.Encoder. It is the
// reference TestProperty_Perfetto_EqualsReference holds perfettoJSON to.
func perfettoReference(w *World) ([]byte, error) {
	now := w.Sim.Now()
	var chaos []cluster.CampaignEvent
	if w.campaign != nil {
		chaos = w.campaign.Events()
	}
	plans := w.Plans()
	tr := w.Trace
	acts := recordedOps(tr)

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
	nspans := len(tr.Spans())
	evs := make([]perfettoEvent, 0, 1+len(nodes)+4+placed+len(chaos)+len(plans)+len(acts)+nspans)
	evs = append(evs, referenceMeta(pidCluster, 0, "process_name", "cluster"))
	for i, n := range nodes {
		nodeTid[n] = i + 1
		evs = append(evs, referenceMeta(pidCluster, i+1, "thread_name", n))
	}

	evs = append(evs,
		referenceMeta(pidOrchestrator, 0, "process_name", "dyflow"),
		referenceMeta(pidOrchestrator, tidPlans, "thread_name", "plans"),
		referenceMeta(pidOrchestrator, tidActuation, "thread_name", "actuation"),
		referenceMeta(pidOrchestrator, tidSuggestions, "thread_name", "suggestions"),
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
	for _, op := range acts {
		evs = append(evs, perfettoEvent{
			Name: op.Kind + " " + op.Task, Cat: "actuation", Ph: "X",
			Ts: usec(op.StartedAt), Dur: dur(op.StartedAt, op.EndedAt),
			Pid: pidOrchestrator, Tid: tidActuation,
			Args: &actuationArgs{Workflow: op.Workflow, Attempts: op.Attempts, Error: op.Err},
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

func referenceMeta(pid, tid int, kind, name string) perfettoEvent {
	return perfettoEvent{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: &metaArgs{Name: name},
	}
}

// TestProperty_Perfetto_EqualsReference renders every scenario's world on
// both machines at seeds 1–3 with perfettoJSON and with the reference, and
// then the same worlds edited: their first interval failed, their second
// still open and their first plan empty. The two documents must be
// byte-identical, and the job's artifact the document rendered again. The
// worlds must between them hold chaos instants, failed incarnations
// (exit_code) and plans with and without ops.
func TestProperty_Perfetto_EqualsReference(t *testing.T) {
	seen := map[string]int{}
	check := func(name string, w *World) {
		t.Helper()
		got, err := perfettoJSON(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := perfettoReference(w)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: documents differ at byte %d of %d/%d:\n got %.200s\nwant %.200s",
				name, i, len(got), len(want), got[i:], want[i:])
		}
		for _, mark := range []string{`"cat":"chaos"`, `"exit_code"`, `"ops":null`, `"ops":["`, `"error":"`, `"dropped":"`} {
			if bytes.Contains(got, []byte(mark)) {
				seen[mark]++
			}
		}
	}
	for _, scenario := range Scenarios() {
		for _, machine := range []string{"summit", "dt2"} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/%d", scenario, machine, seed)
				var w *World
				out, err := RunJob(Job{Scenario: scenario, Machine: machine, Seed: seed}, func(x *World) error { w = x; return nil })
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(name, w)
				if doc, _ := perfettoJSON(w); !bytes.Equal(out.Artifacts[ArtifactPerfetto], doc) {
					t.Fatalf("%s: the job's artifact is not the document rendered again", name)
				}
				if len(w.Rec.Intervals) >= 2 {
					w.Rec.Intervals[0].Final, w.Rec.Intervals[0].ExitCode = task.Failed, 137
					w.Rec.Intervals[1].End = 0
					if plans := w.Plans(); len(plans) > 0 {
						plans[0].Plan.Ops = nil // the records themselves
					}
					check(name+"/edited", w)
				}
			}
		}
	}
	for _, mark := range []string{`"cat":"chaos"`, `"exit_code"`, `"ops":null`, `"ops":["`} {
		if seen[mark] == 0 {
			t.Errorf("no world's document holds %s: %v", mark, seen)
		}
	}
}
