package exp

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"dyflow/internal/apps"
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
	wantOps := len(res.W.Orch.Executor.Records())
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
// had lost its buffer. The document itself is allocated once, at its size.
func TestPerfettoAllocationIgnoresJSONPool(t *testing.T) {
	var w *World
	if _, err := runXGC(1, apps.Summit, Variant{Configure: func(x *World) error { w = x; return nil }}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	render := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		doc, err := perfettoJSON(w)
		if err != nil {
			t.Fatal(err)
		}
		if cap(doc) != len(doc) {
			t.Fatalf("document has capacity %d for %d bytes, want it exactly sized", cap(doc), len(doc))
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	render()
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	warm := render()
	runtime.GC()
	runtime.GC()
	cold := render()
	if diff := int64(cold) - int64(warm); diff > 16<<10 || diff < -16<<10 {
		t.Fatalf("render allocated %d B with a warm pool and %d B with an empty one", warm, cold)
	}
}
