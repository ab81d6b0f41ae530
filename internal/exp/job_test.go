package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/sim"
)

// TestRunJobQuickstartDeterministic is the foundation the campaign
// service's result cache stands on: equal jobs produce byte-identical
// artifacts.
func TestRunJobQuickstartDeterministic(t *testing.T) {
	job := Job{Scenario: ScenarioQuickstart, Machine: "dt2", Seed: 7}
	a, err := RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged {
		t.Fatalf("quickstart job did not converge: %+v", a.Report)
	}
	for _, name := range []string{ArtifactReport, ArtifactGantt, ArtifactPerfetto, ArtifactMetrics} {
		if len(a.Artifacts[name]) == 0 {
			t.Fatalf("artifact %s empty", name)
		}
		if !bytes.Equal(a.Artifacts[name], b.Artifacts[name]) {
			t.Errorf("artifact %s differs between identical runs", name)
		}
	}
	var rep Report
	if err := json.Unmarshal(a.Artifacts[ArtifactReport], &rep); err != nil {
		t.Fatalf("report artifact is not a Report: %v", err)
	}
	if rep.ID != "Quickstart" || len(rep.Rows) == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestRunJobProgressAndCancel(t *testing.T) {
	// Progress: the hook sees monotonically advancing virtual time.
	var last sim.Time
	calls := 0
	_, err := RunJob(Job{Scenario: ScenarioQuickstart, Seed: 1}, func(w *World) error {
		w.OnProgress = func(now sim.Time) error {
			if now < last {
				t.Errorf("progress went backwards: %v after %v", now, last)
			}
			last = now
			calls++
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || last == 0 {
		t.Fatalf("progress hook never fired (calls=%d last=%v)", calls, last)
	}

	// Cancel: a hook error aborts the run and surfaces as the run error.
	sentinel := errors.New("canceled")
	_, err = RunJob(Job{Scenario: ScenarioQuickstart, Seed: 1}, func(w *World) error {
		w.OnProgress = func(now sim.Time) error {
			if now >= sim.Time(30*time.Second) {
				return sentinel
			}
			return nil
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("canceled run returned %v, want sentinel", err)
	}
}

func TestJobNormalizeAndKey(t *testing.T) {
	j, err := Job{Scenario: " Quickstart ", Machine: "Deepthought2", Seed: 3}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if j.Scenario != ScenarioQuickstart || j.Machine != "dt2" {
		t.Fatalf("normalized to %+v", j)
	}
	if _, err := (Job{Scenario: "nope"}).Normalized(); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := (Job{Scenario: ScenarioQuickstart, XML: "<dyflow"}).Normalized(); err == nil {
		t.Fatal("malformed XML accepted")
	}
	// A disk-scan glob that can never match is a submission error (the
	// service answers 400), not a policy that silently never fires.
	badGlob := strings.Replace(XGCXML(apps.Summit), `info-source="out/xgc1.*.bp"`, `info-source="out/[.bp"`, 1)
	if _, err := (Job{Scenario: ScenarioXGC, XML: badGlob}).Normalized(); err == nil || !strings.Contains(err.Error(), `monitor-task "XGC1"`) {
		t.Fatalf("malformed disk-scan glob: err = %v, want one naming monitor-task XGC1", err)
	}

	base := Job{Scenario: ScenarioQuickstart, Machine: "summit", Seed: 1}
	keys := map[string]string{}
	for name, j := range map[string]Job{
		"base":     base,
		"seed":     {Scenario: ScenarioQuickstart, Machine: "summit", Seed: 2},
		"machine":  {Scenario: ScenarioQuickstart, Machine: "dt2", Seed: 1},
		"scenario": {Scenario: ScenarioGrayScott, Machine: "summit", Seed: 1},
		"xml":      {Scenario: ScenarioQuickstart, Machine: "summit", Seed: 1, XML: quickstartXML},
	} {
		k := j.Key()
		for other, ok := range keys {
			if ok == k {
				t.Errorf("jobs %s and %s share key %s", name, other, k)
			}
		}
		keys[name] = k
	}
}

// TestWorldKeepsOnlyReadSeries: a job world records the metric points some
// reader declared and no other. xgc, lammps, quickstart and chaos have no
// reader of a point and hold none; grayscott and overprov hold exactly
// their workflow's PACE points, which their reports read — the same points
// a world that declared every series holds of that series, in the same
// order.
func TestWorldKeepsOnlyReadSeries(t *testing.T) {
	kept := func(w *World) []MetricPoint {
		var out []MetricPoint
		w.Rec.EachMetric(func(m MetricPoint) { out = append(out, m) })
		return out
	}
	forwarded := func(w *World) int64 {
		return w.Orch.Trace.Counter("monitor.forwarded") + w.Orch.Trace.Counter("monitor.repolled")
	}
	for _, tc := range []struct {
		scenario string
		points   int
	}{
		{ScenarioQuickstart, 0},
		{ScenarioGrayScott, 105},
		{ScenarioOverprov, 198},
		{ScenarioXGC, 0},
		{ScenarioLAMMPS, 0},
		{ScenarioChaos, 0},
	} {
		var w, all *World
		if _, err := RunJob(Job{Scenario: tc.scenario, Seed: 1}, func(x *World) error { w = x; return nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := RunJob(Job{Scenario: tc.scenario, Seed: 1}, func(x *World) error {
			all = x
			x.Rec.Keep(everySeries)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, every := kept(w), kept(all)
		if len(got) != tc.points {
			t.Errorf("%s: the world holds %d points, want %d", tc.scenario, len(got), tc.points)
		}
		if n := forwarded(all); int64(len(every)) != n || n == 0 {
			t.Errorf("%s: a world that declared every series holds %d of %d forwarded points", tc.scenario, len(every), n)
		}
		var want []MetricPoint
		if tc.points > 0 {
			pace := paceSeries(apps.GrayScottWorkflowID)
			for _, m := range every {
				if pace(m.Key) {
					want = append(want, m)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the world holds %d points, not the %d of its readers' series", tc.scenario, len(got), len(want))
		}
	}
}
