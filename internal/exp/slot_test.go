package exp

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"dyflow/internal/apps"
)

// TestSlot_RendersIntoItsBuffers renders the artifacts of finished
// worlds into a slot warmed on them: each render after the first must
// allocate under 5 % of the bytes it renders, because every artifact goes
// into the buffer the slot kept from the render before. Rendering into
// fresh slices allocates every byte again, and more. The worlds are the
// fleet-durable workload's (grayscott), des-heavy's (xgc) and the largest
// (chaos); a quickstart render's 14 KB are too few for the ≈ 1.8 KB a
// render allocates whatever its buffers (the gantt's rows and notes, the
// Perfetto op labels) to come under 5 %.
func TestSlot_RendersIntoItsBuffers(t *testing.T) {
	if raceDetector || testing.CoverMode() != "" {
		t.Skip("allocation counts are not comparable under -race or -cover")
	}
	for _, sc := range []string{ScenarioGrayScott, ScenarioXGC, ScenarioChaos} {
		t.Run(sc, func(t *testing.T) {
			w, rep := finishedWorld(t, sc, 1)
			defer w.Close()
			s := NewSlot(nil)
			if _, err := s.render(w, rep); err != nil { // warm the slot and encoding/json's caches
				t.Fatal(err)
			}
			const renders = 100
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			size := 0
			for i := 0; i < renders; i++ {
				arts, err := s.render(w, rep)
				if err != nil {
					t.Fatal(err)
				}
				size = 0
				for _, a := range arts {
					size += len(a)
				}
			}
			runtime.ReadMemStats(&ms)
			alloc := float64(ms.TotalAlloc-before) / renders
			t.Logf("%s: a render of %d artifact bytes allocates %.0f B (%.1f %%)", sc, size, alloc, 100*alloc/float64(size))
			if alloc >= 0.05*float64(size) {
				t.Fatalf("a render into a warm slot allocated %.0f B for %d artifact bytes, want under 5 %%", alloc, size)
			}
		})
	}
}

// finishedWorld runs the scenario's job (summit) to its end and returns
// the world, still open, with the job's report.
func finishedWorld(t *testing.T, scenario string, seed int64) (*World, *Report) {
	t.Helper()
	var w *World
	rep, _, err := lookup(scenario).run(seed, apps.Summit, Variant{Configure: func(x *World) error { w = x; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	return w, rep
}

// TestSlot_ReportEqualsMarshalIndent: the report the slot's kept encoder
// writes is json.MarshalIndent's and a newline, byte for byte, for every
// scenario's report and for each of them written after another's.
func TestSlot_ReportEqualsMarshalIndent(t *testing.T) {
	s := NewSlot(nil)
	for _, sc := range Scenarios() {
		w, rep := finishedWorld(t, sc, 1)
		arts, err := s.render(w, rep)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := arts[ArtifactReport]; !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s report\n%s\nwant\n%s", sc, got, want)
		}
	}
}
