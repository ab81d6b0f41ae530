package dyflow

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const quickXML = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Ana" workflowId="WF" info-source="tau.Ana">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC">
        <eval operation="GT" threshold="10"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
        <history window="3" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="WF">
      <apply-policy policyId="INC" assess-task="Ana">
        <act-on-tasks>Ana</act-on-tasks>
        <action-params><param key="adjust-by" value="6"/></action-params>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="WF">
        <task-priorities>
          <task-priority name="Sim" priority="0"/>
          <task-priority name="Ana" priority="1"/>
        </task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`

func quickSystem(t *testing.T, seed int64) *System {
	t.Helper()
	sys, err := NewSystem(seed, Deepthought2, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Compose(&WorkflowSpec{
		ID: "WF",
		Tasks: []TaskConfig{
			{
				Spec: TaskSpec{
					Name: "Sim", Workflow: "WF",
					Cost: Cost{Work: 10 * time.Second}, TotalSteps: 400,
					ProducesTo: "wf.out",
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			{
				Spec: TaskSpec{
					Name: "Ana", Workflow: "WF",
					Cost: Cost{Work: 40 * time.Second}, ConsumesFrom: "wf.out", ConsumeBuf: 1,
					Profile: true,
				},
				Procs: 2, ProcsPerNode: 1, AutoStart: true,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Arbiter: ArbiterConfig{
		WarmupDelay:  time.Minute,
		SettleDelay:  time.Minute,
		PlanCost:     100 * time.Millisecond,
		GatherWindow: 5 * time.Second,
	}}
	if err := sys.StartOrchestration(quickXML, opts); err != nil {
		t.Fatal(err)
	}
	sys.Launch("WF")
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := quickSystem(t, 42)
	end, err := sys.RunUntilWorkflowDone("WF", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 || end > time.Hour {
		t.Fatalf("end = %v", end)
	}
	if got := sys.TaskProcs("WF", "Ana"); got != 8 {
		t.Fatalf("Ana procs = %d, want 8 after adaptation", got)
	}
	if len(sys.Plans()) != 1 {
		t.Fatalf("plans = %d", len(sys.Plans()))
	}
	series := sys.MetricSeries("WF", "Ana", "PACE")
	if len(series) == 0 {
		t.Fatal("no PACE series")
	}
	var buf bytes.Buffer
	sys.WriteGantt(&buf, 80)
	out := buf.String()
	if !strings.Contains(out, "Ana") || !strings.Contains(out, "DYFLOW") {
		t.Fatalf("gantt output missing rows:\n%s", out)
	}
}

// TestSystemKeepsEveryForwardedPoint: a System declares every series, so
// its trace dump holds each metric its Monitor server forwarded.
func TestSystemKeepsEveryForwardedPoint(t *testing.T) {
	sys := quickSystem(t, 42)
	defer sys.Close()
	if _, err := sys.RunUntilWorkflowDone("WF", time.Hour); err != nil {
		t.Fatal(err)
	}
	tr := sys.World().Orch.Trace
	forwarded := tr.Counter("monitor.forwarded") + tr.Counter("monitor.repolled")
	if got := len(sys.DumpTrace().Metrics); forwarded == 0 || int64(got) != forwarded {
		t.Fatalf("the trace dump holds %d points, want all %d forwarded", got, forwarded)
	}
}

// TestSystemDeterminism: identical seeds give byte-identical traces.
func TestSystemDeterminism(t *testing.T) {
	run := func() string {
		sys := quickSystem(t, 7)
		if _, err := sys.RunUntilWorkflowDone("WF", time.Hour); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sys.WriteGantt(&buf, 100)
		sys.WritePlanSummary(&buf)
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestTraceDumpRoundTrip(t *testing.T) {
	sys := quickSystem(t, 42)
	if _, err := sys.RunUntilWorkflowDone("WF", time.Hour); err != nil {
		t.Fatal(err)
	}
	dump := sys.DumpTrace()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := dump.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTraceDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Intervals) != len(dump.Intervals) || len(loaded.Plans) != len(dump.Plans) {
		t.Fatalf("round trip lost records: %d/%d intervals, %d/%d plans",
			len(loaded.Intervals), len(dump.Intervals), len(loaded.Plans), len(dump.Plans))
	}
	if len(loaded.Plans) == 0 {
		t.Fatal("the run recorded no arbitration round")
	}
	var buf, live bytes.Buffer
	loaded.Gantt(&buf, 80)
	if !strings.Contains(buf.String(), "Ana") {
		t.Fatalf("rendered dump missing task row:\n%s", buf.String())
	}
	// The dump draws the chart the live run draws, DYFLOW row included.
	sys.WriteGantt(&live, 80)
	if !strings.Contains(live.String(), "(DYFLOW adjustment windows)") || !strings.HasPrefix(buf.String(), live.String()) {
		t.Fatalf("rendered dump:\n%s\nwant the live chart first:\n%s", buf.String(), live.String())
	}
}

func TestSystemConfigBuild(t *testing.T) {
	cfgJSON := `{
	  "machine": "dt2",
	  "nodes": 2,
	  "seed": 3,
	  "workflows": [{
	    "id": "WF",
	    "tasks": [
	      {"name": "Sim", "procs": 10, "procsPerNode": 5, "autoStart": true,
	       "workSec": 10, "totalSteps": 50, "producesTo": "wf.out", "profile": true},
	      {"name": "Ana", "procs": 4, "procsPerNode": 2, "autoStart": true,
	       "workSec": 20, "consumesFrom": "wf.out", "consumeBuf": 1}
	    ]
	  }],
	  "scripts": [{"name": "prep.sh", "costSec": 2}],
	  "failures": [{"atSec": 3600, "node": "node001"}]
	}`
	path := filepath.Join(t.TempDir(), "system.json")
	if err := os.WriteFile(path, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadSystemConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.WorkflowIDs(); len(got) != 1 || got[0] != "WF" {
		t.Fatalf("workflow ids = %v", got)
	}
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Launch("WF")
	if _, err := sys.RunUntilWorkflowDone("WF", time.Hour); err != nil {
		t.Fatal(err)
	}
	if sys.TaskRunning("WF", "Sim") {
		t.Fatal("Sim should be done")
	}
}

func TestSystemConfigErrors(t *testing.T) {
	if _, err := (&SystemConfig{Machine: "cray", Nodes: 1}).Build(); err == nil {
		t.Fatal("unknown machine should fail")
	}
	if _, err := (&SystemConfig{Machine: "summit"}).Build(); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := LoadSystemConfig("/nonexistent/x.json"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestCompileSpecFacade(t *testing.T) {
	cfg, err := CompileSpec(quickXML)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sensors["PACE"] == nil || cfg.Policies["INC"] == nil {
		t.Fatal("compiled config incomplete")
	}
	if _, err := CompileSpec("<dyflow/>"); err == nil {
		t.Fatal("empty spec should fail validation")
	}
}

// TestPaperWorkflowBuilders sanity-checks the re-exported builders.
func TestPaperWorkflowBuilders(t *testing.T) {
	has := func(wf *WorkflowSpec, name string) bool {
		for _, tc := range wf.Tasks {
			if tc.Spec.Name == name {
				return true
			}
		}
		return false
	}
	for _, m := range []Machine{Summit, Deepthought2} {
		if !has(XGCWorkflow(m), "XGC1") {
			t.Fatalf("%v XGC workflow missing XGC1", m)
		}
		if !has(GrayScottWorkflow(m), "Isosurface") {
			t.Fatalf("%v Gray-Scott workflow missing Isosurface", m)
		}
		if !has(LAMMPSWorkflow(m), "LAMMPS") {
			t.Fatalf("%v LAMMPS workflow missing LAMMPS", m)
		}
	}
}

// TestShippedArtifactsCompile: the CLI example's JSON/XML artifacts and
// every orchestration document under specs/ parse and validate.
func TestShippedArtifactsCompile(t *testing.T) {
	cfg, err := LoadSystemConfig("examples/cli/system.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Build(); err != nil {
		t.Fatalf("examples/cli/system.json: %v", err)
	}
	docs, err := filepath.Glob("specs/*.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("specs/ holds no orchestration document")
	}
	for _, path := range append(docs, "examples/cli/orchestration.xml") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileSpec(string(data)); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
