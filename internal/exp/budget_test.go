package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dyflow/internal/trace"
)

var updateBudget = flag.Bool("update-budget", false, "re-record testdata/budget.json from this tree")

// budgetPath is the committed allocation budget: one row per job
// scenario, summit, seed 1. `git log -p` on it is the in-world ledger.
var budgetPath = filepath.Join("testdata", "budget.json")

// budgetRuns is the number of measured jobs a row averages over, after
// one warm-up job. With 25, each row's B/op spread over ten test runs
// on a 2-vCPU Xeon is at most 0.34 % (overprov), inside budgetTolerance;
// with 10 it reached 0.67 %.
const budgetRuns = 25

// budgetTolerance is how far B/op and allocs/op may move, either way,
// before the row must be re-recorded.
const budgetTolerance = 0.01

// A budgetRow is what one job of a scenario costs on a worker slot's
// RunJob path: allocation per job, and the world's exact counts.
type budgetRow struct {
	Scenario      string `json:"scenario"`
	BytesPerOp    int64  `json:"b_per_op"`
	AllocsPerOp   int64  `json:"allocs_per_op"`
	Handoffs      uint64 `json:"handoffs"`
	Events        uint64 `json:"events"`
	Spans         int    `json:"spans"`
	Points        int    `json:"points"`
	ArtifactBytes int    `json:"artifact_bytes"`
}

// budgetJob runs scenario's job (summit, seed 1) through s's RunJob, as a
// worker slot runs it, and returns its counts; the allocation fields are
// left zero.
func budgetJob(t *testing.T, s *Slot, scenario string) budgetRow {
	row := budgetRow{Scenario: scenario}
	var w *World
	out, err := s.RunJob(Job{Scenario: scenario, Machine: "summit", Seed: 1}, func(x *World) error { w = x; return nil })
	if err != nil {
		t.Fatal(err)
	}
	row.Handoffs = w.Sim.Handoffs()
	row.Events = w.Sim.Dispatched()
	w.Orch.Trace.VisitSpans(func(*trace.Span) { row.Spans++ })
	w.Rec.EachMetric(func(MetricPoint) { row.Points++ })
	for _, a := range out.Artifacts {
		row.ArtifactBytes += len(a)
	}
	return row
}

// measureBudget runs one warm-up job, then budgetRuns measured ones, all
// through one Slot as a worker slot's jobs are, and returns the row with
// B/op and allocs/op averaged over the measured jobs: the warm-up compiles
// the scenario's document and sizes the slot's render buffers, and the
// measured jobs pay what a slot pays for each job after its first, when
// the coordinator kept none of its artifacts. Every job must repeat the
// warm-up's counts.
func measureBudget(t *testing.T, scenario string) budgetRow {
	s := NewSlot(new(Docs))
	want := budgetJob(t, s, scenario)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < budgetRuns; i++ {
		if got := budgetJob(t, s, scenario); got != want {
			t.Fatalf("%s is not deterministic: run %d counted %+v, the warm-up %+v", scenario, i, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	want.BytesPerOp = int64(math.Round(float64(after.TotalAlloc-before.TotalAlloc) / budgetRuns))
	want.AllocsPerOp = int64(math.Round(float64(after.Mallocs-before.Mallocs) / budgetRuns))
	return want
}

// encodeBudget writes rows one to a line, so a re-recorded row is a
// one-line diff.
func encodeBudget(rows []budgetRow) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// moved reports whether measured row got must replace committed row want:
// a count changed, or B/op or allocs/op moved past budgetTolerance either
// way.
func moved(got, want budgetRow) bool {
	return got.counts() != want.counts() || offBudget(got.BytesPerOp, want.BytesPerOp) || offBudget(got.AllocsPerOp, want.AllocsPerOp)
}

// counts is r without its allocation fields: the counts that must match
// exactly.
func (r budgetRow) counts() budgetRow {
	r.BytesPerOp, r.AllocsPerOp = 0, 0
	return r
}

// offBudget reports whether got is more than budgetTolerance off want.
func offBudget(got, want int64) bool {
	return math.Abs(float64(got-want)/float64(want)) > budgetTolerance
}

// mergeBudget returns the table -update-budget writes: one row per
// scenario in order, each the committed row unless the scenario was
// measured and its row moved, and then the measured one. A scenario that
// did not run keeps its committed row, and one with neither row has none.
func mergeBudget(order []string, committed, measured map[string]budgetRow) []budgetRow {
	var rows []budgetRow
	for _, sc := range order {
		want, haveWant := committed[sc]
		got, haveGot := measured[sc]
		switch {
		case haveGot && (!haveWant || moved(got, want)):
			rows = append(rows, got)
		case haveWant:
			rows = append(rows, want)
		}
	}
	return rows
}

// readBudget returns the committed table by scenario; a missing table is
// an empty one.
func readBudget(t *testing.T) map[string]budgetRow {
	committed := map[string]budgetRow{}
	raw, err := os.ReadFile(budgetPath)
	if errors.Is(err, fs.ErrNotExist) {
		return committed
	}
	if err != nil {
		t.Fatal(err)
	}
	var rows []budgetRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("%s: %v", budgetPath, err)
	}
	for _, r := range rows {
		committed[r.Scenario] = r
	}
	return committed
}

// TestWorldBudget holds every job scenario to its committed row in
// testdata/budget.json: handoffs, events, spans, points and artifact
// bytes must match exactly, and B/op and allocs/op may move by at most
// budgetTolerance either way. A change that moves a row on purpose
// re-records the table with
//
//	go test ./internal/exp -run TestWorldBudget -args -update-budget
//
// which rewrites only the rows that moved (mergeBudget): a scenario the
// -run pattern skipped, or one inside the tolerance, keeps its committed
// row. The table's diff is the change's measurement. Allocation counts
// mean nothing under the race detector or coverage, so the test skips
// there.
func TestWorldBudget(t *testing.T) {
	if raceDetector || testing.CoverMode() != "" {
		t.Skip("allocation counts are not comparable under -race or -cover")
	}
	committed := readBudget(t)
	measured := map[string]budgetRow{}
	for _, sc := range Scenarios() {
		t.Run(sc, func(t *testing.T) {
			got := measureBudget(t, sc)
			measured[sc] = got
			line, _ := json.Marshal(got)
			t.Logf("measured %s", line)
			if *updateBudget {
				return
			}
			want, ok := committed[sc]
			if !ok {
				t.Fatalf("%s has no row in %s; re-record with -args -update-budget", sc, budgetPath)
			}
			line, _ = json.Marshal(want)
			t.Logf("budget   %s", line)
			if got.counts() != want.counts() {
				t.Errorf("counts moved:\n got  %+v\n want %+v", got.counts(), want.counts())
			}
			for _, m := range []struct {
				name      string
				got, want int64
			}{{"B/op", got.BytesPerOp, want.BytesPerOp}, {"allocs/op", got.AllocsPerOp, want.AllocsPerOp}} {
				if offBudget(m.got, m.want) {
					d := float64(m.got-m.want) / float64(m.want)
					t.Errorf("%s %d is %+.2f%% off the budget's %d (tolerance ±%.0f%%); if the change meant it, re-record with -args -update-budget",
						m.name, m.got, 100*d, m.want, 100*budgetTolerance)
				}
			}
		})
	}
	if *updateBudget && !t.Failed() {
		raw, err := encodeBudget(mergeBudget(Scenarios(), committed, measured))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(budgetPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeBudget: on planted tables, -update-budget's merge rewrites a
// measured row only when a count changed or B/op or allocs/op moved past
// the tolerance, keeps the committed row of a scenario that did not run,
// adds a new scenario's row, and writes the rows in scenario order.
func TestMergeBudget(t *testing.T) {
	row := func(sc string, b, allocs int64, events uint64) budgetRow {
		return budgetRow{Scenario: sc, BytesPerOp: b, AllocsPerOp: allocs, Handoffs: 7, Events: events, Spans: 3}
	}
	committed := map[string]budgetRow{}
	for _, r := range []budgetRow{
		row("still", 100000, 1000, 50),
		row("count", 100000, 1000, 50),
		row("bytes", 100000, 1000, 50),
		row("allocs", 100000, 1000, 50),
		row("skipped", 100000, 1000, 50),
		row("gone", 100000, 1000, 50),
	} {
		committed[r.Scenario] = r
	}
	measured := map[string]budgetRow{}
	for _, r := range []budgetRow{
		row("still", 100900, 991, 50),   // inside the tolerance both ways
		row("count", 100000, 1000, 51),  // one event more
		row("bytes", 98900, 1000, 50),   // -1.1 %
		row("allocs", 100000, 1011, 50), // +1.1 %
		row("new", 5, 1, 1),
	} {
		measured[r.Scenario] = r
	}
	order := []string{"new", "skipped", "allocs", "bytes", "count", "still", "absent"}
	want := []budgetRow{measured["new"], committed["skipped"], measured["allocs"], measured["bytes"], measured["count"], committed["still"]}
	if got := mergeBudget(order, committed, measured); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged\n%+v\nwant\n%+v", got, want)
	}
	if got := mergeBudget(order, committed, nil); !reflect.DeepEqual(got, []budgetRow{committed["skipped"], committed["allocs"], committed["bytes"], committed["count"], committed["still"]}) {
		t.Fatalf("a run that measured nothing rewrote %+v", got)
	}
}
