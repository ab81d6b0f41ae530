package spec

import (
	"strings"
	"testing"
	"time"

	"dyflow/internal/stats"
)

// paceXML mirrors the paper's Figures 3-5 (Gray-Scott PACE orchestration).
const paceXML = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <preprocess operation="MAX"/>
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Isosurface" workflowId="GS-WORKFLOW" info-source="tau.Isosurface">
        <use-sensor sensor-id="PACE" info="looptime">
          <parameter key="info-type" value="double"/>
        </use-sensor>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC_ON_PACE">
        <eval operation="GT" threshold="36"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action> ADDCPU </action>
        <history window="10" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>
      <policy id="DEC_ON_PACE">
        <eval operation="LT" threshold="24"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>RMCPU</action>
      </policy>
    </policies>
    <apply-on workflowId="GS-WORKFLOW">
      <apply-policy policyId="INC_ON_PACE" assess-task="Isosurface">
        <act-on-tasks> Isosurface </act-on-tasks>
        <action-params><param key="adjust-by" value="20"/></action-params>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="GS-WORKFLOW">
        <task-priorities>
          <task-priority name="GrayScott" priority="0"/>
          <task-priority name="Isosurface" priority="1"/>
        </task-priorities>
        <task-dependencies>
          <task-dep name="Rendering" type="TIGHT" parent="Isosurface"/>
        </task-dependencies>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`

func TestCompilePaperExample(t *testing.T) {
	cfg, err := CompileString(paceXML)
	if err != nil {
		t.Fatal(err)
	}
	pace := cfg.Sensors["PACE"]
	if pace == nil {
		t.Fatal("PACE sensor missing")
	}
	if pace.Source != SourceTAUADIOS2 {
		t.Fatalf("source = %v", pace.Source)
	}
	if pace.Preprocess == nil || *pace.Preprocess != stats.OpMax {
		t.Fatalf("preprocess = %v", pace.Preprocess)
	}
	if len(pace.Groups) != 1 || pace.Groups[0].Granularity != GranTask || pace.Groups[0].Reduction != stats.OpMax {
		t.Fatalf("groups = %+v", pace.Groups)
	}

	if len(cfg.Targets) != 1 {
		t.Fatalf("targets = %+v", cfg.Targets)
	}
	tg := cfg.Targets[0]
	if tg.Task != "Isosurface" || tg.Workflow != "GS-WORKFLOW" || tg.InfoSource != "tau.Isosurface" {
		t.Fatalf("target = %+v", tg)
	}
	if tg.Sensors[0].Info != "looptime" || tg.Sensors[0].Params["info-type"] != "double" {
		t.Fatalf("sensor use = %+v", tg.Sensors[0])
	}

	inc := cfg.Policies["INC_ON_PACE"]
	if inc.Eval != OpGT || inc.Threshold != 36 {
		t.Fatalf("eval = %v %v", inc.Eval, inc.Threshold)
	}
	if inc.Action != ActionAddCPU {
		t.Fatalf("action = %v", inc.Action)
	}
	if inc.History == nil || inc.History.Window != 10 || inc.History.Op != stats.OpAvg {
		t.Fatalf("history = %+v", inc.History)
	}
	if inc.Frequency != 5*time.Second {
		t.Fatalf("frequency = %v", inc.Frequency)
	}
	dec := cfg.Policies["DEC_ON_PACE"]
	if dec.Frequency != DefaultFrequency {
		t.Fatalf("default frequency = %v", dec.Frequency)
	}
	if dec.History != nil {
		t.Fatal("DEC_ON_PACE has no history")
	}

	if len(cfg.Bindings) != 1 {
		t.Fatalf("bindings = %+v", cfg.Bindings)
	}
	b := cfg.Bindings[0]
	if b.AssessTask != "Isosurface" || len(b.ActOnTasks) != 1 || b.ActOnTasks[0] != "Isosurface" {
		t.Fatalf("binding = %+v", b)
	}
	if b.IntParam("adjust-by", 0) != 20 {
		t.Fatalf("adjust-by = %v", b.Params)
	}
	if b.IntParam("missing", 7) != 7 || b.Param("missing", "x") != "x" {
		t.Fatal("param defaults broken")
	}

	rules := cfg.RulesFor("GS-WORKFLOW")
	if rules.TaskPriority("GrayScott") != 0 || rules.TaskPriority("Isosurface") != 1 {
		t.Fatalf("task priorities = %+v", rules.TaskPriorities)
	}
	if rules.TaskPriority("FFT") != UnsetPriority {
		t.Fatal("unset task priority should be lowest")
	}
	deps := rules.Dependents("Isosurface", nil)
	if len(deps) != 1 || deps[0] != "Rendering" {
		t.Fatalf("dependents = %v", deps)
	}
	tight := DepTight
	if got := rules.Dependents("Isosurface", &tight); len(got) != 1 {
		t.Fatalf("tight dependents = %v", got)
	}
	loose := DepLoose
	if got := rules.Dependents("Isosurface", &loose); len(got) != 0 {
		t.Fatalf("loose dependents = %v", got)
	}
}

func TestCompileCollectsAllErrors(t *testing.T) {
	bad := `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="S1" type="NOPE">
        <group-by><group granularity="galaxy" reduction-operation="MAX"/></group-by>
      </sensor>
      <sensor id="S1" type="ADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
      <sensor id="SCAN" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="T" workflowId="W">
        <use-sensor sensor-id="UNKNOWN" info="x"/>
      </monitor-task>
      <monitor-task name="G" workflowId="W" info-source="out/[.bp">
        <use-sensor sensor-id="SCAN" info="step"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P1">
        <eval operation="??" threshold="1"/>
        <sensors-to-use><use-sensor id="S1" granularity="workflow"/></sensors-to-use>
        <action>EXPLODE</action>
        <history window="-1" operation="AVG"/>
        <frequency seconds="0"/>
      </policy>
    </policies>
    <apply-on workflowId="W">
      <apply-policy policyId="NOPE"><act-on-tasks>T</act-on-tasks></apply-policy>
      <apply-policy policyId="P1"><act-on-tasks></act-on-tasks></apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="W">
        <task-dependencies><task-dep name="A" type="SIDEWAYS" parent="B"/></task-dependencies>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`
	_, err := CompileString(bad)
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	for _, want := range []string{
		"unknown sensor source type",
		"unknown granularity",
		"duplicate sensor id",
		"unknown sensor \"UNKNOWN\"",
		"monitor-task \"G\": sensor \"SCAN\" info-source: fsim: pattern \"out/[.bp\": syntax error in pattern",
		"unknown comparison operation",
		"no \"workflow\" group",
		"unknown action",
		"window must be positive",
		"frequency must be positive",
		"unknown policy \"NOPE\"",
		"empty <act-on-tasks>",
		"unknown dependency type",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message missing %q:\n%s", want, msg)
		}
	}
}

func TestCompileMissingSections(t *testing.T) {
	_, err := CompileString(`<dyflow/>`)
	if err == nil {
		t.Fatal("empty document should fail")
	}
	if !strings.Contains(err.Error(), "<monitor>") || !strings.Contains(err.Error(), "<decision>") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseMalformedXML(t *testing.T) {
	if _, err := ParseString("<dyflow><monitor>"); err == nil {
		t.Fatal("malformed XML should fail")
	}
	if _, err := ParseString("<notdyflow/>"); err == nil {
		t.Fatal("wrong root element should fail")
	}
}

func TestCompareOps(t *testing.T) {
	cases := []struct {
		op   CompareOp
		v, t float64
		want bool
	}{
		{OpGT, 2, 1, true}, {OpGT, 1, 1, false},
		{OpLT, 0, 1, true}, {OpLT, 1, 1, false},
		{OpEQ, 374, 374, true}, {OpEQ, 373, 374, false},
		{OpGE, 1, 1, true}, {OpGE, 0.5, 1, false},
		{OpLE, 1, 1, true}, {OpLE, 1.5, 1, false},
		{OpNE, 2, 1, true}, {OpNE, 1, 1, false},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.v, c.t); got != c.want {
			t.Errorf("%v.Compare(%v,%v) = %v", c.op, c.v, c.t, got)
		}
	}
}

func TestJoinOps(t *testing.T) {
	if JoinDiv.Apply(10, 4) != 2.5 {
		t.Error("DIV")
	}
	if JoinDiv.Apply(10, 0) != 0 {
		t.Error("DIV by zero should yield 0")
	}
	if JoinMul.Apply(3, 4) != 12 || JoinAdd.Apply(3, 4) != 7 || JoinSub.Apply(3, 4) != -1 {
		t.Error("MUL/ADD/SUB")
	}
}

func TestEnumRoundTrips(t *testing.T) {
	for _, st := range []SourceType{SourceTAUADIOS2, SourceADIOS2, SourceDiskScan, SourceFile, SourceErrorStatus, SourceDB} {
		got, err := ParseSourceType(st.String())
		if err != nil || got != st {
			t.Errorf("source %v: %v %v", st, got, err)
		}
	}
	for _, g := range []Granularity{GranTask, GranNodeTask, GranWorkflow, GranNodeWorkflow} {
		got, err := ParseGranularity(g.String())
		if err != nil || got != g {
			t.Errorf("granularity %v: %v %v", g, got, err)
		}
	}
	for _, a := range []Action{ActionAddCPU, ActionRmCPU, ActionStop, ActionStart, ActionRestart, ActionSwitch} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Errorf("action %v: %v %v", a, got, err)
		}
	}
	for _, d := range []DepType{DepTight, DepLoose} {
		got, err := ParseDepType(d.String())
		if err != nil || got != d {
			t.Errorf("dep %v: %v %v", d, got, err)
		}
	}
}

func TestJoinUnknownSensor(t *testing.T) {
	xmlDoc := `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="A" type="ADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
        <join sensor-id="GHOST" operation="DIV"/>
      </sensor>
    </sensors>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1"/>
        <sensors-to-use><use-sensor id="A" granularity="task"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>T</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`
	_, err := CompileString(xmlDoc)
	if err == nil || !strings.Contains(err.Error(), "joins unknown sensor") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseFromReader(t *testing.T) {
	doc, err := Parse(strings.NewReader(paceXML))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Monitor == nil || len(doc.Monitor.Sensors) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Arbitration == nil || len(doc.Arbitration.Rules) != 1 {
		t.Fatalf("arbitration = %+v", doc.Arbitration)
	}
}

func TestJoinGranularityCompile(t *testing.T) {
	cfg, err := CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="FRONT" type="DISKSCAN">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="MAX"/>
        </group-by>
      </sensor>
      <sensor id="LAG" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
        <join sensor-id="FRONT" granularity="workflow" operation="SUB"/>
      </sensor>
    </sensors>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="LT" threshold="0"/>
        <sensors-to-use><use-sensor id="LAG" granularity="task"/></sensors-to-use>
        <action>START</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>T</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}
	lag := cfg.Sensors["LAG"]
	if lag.Join == nil || lag.Join.Granularity == nil || *lag.Join.Granularity != GranWorkflow {
		t.Fatalf("join = %+v", lag.Join)
	}
	if lag.Join.Op != JoinSub {
		t.Fatalf("join op = %v", lag.Join.Op)
	}
	// An invalid join granularity is reported.
	_, err = CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="A" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
        <join sensor-id="A" operation="SUB" granularity="galaxy"/>
      </sensor>
    </sensors>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="LT" threshold="0"/>
        <sensors-to-use><use-sensor id="A" granularity="task"/></sensors-to-use>
        <action>START</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>T</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`)
	if err == nil || !strings.Contains(err.Error(), "unknown granularity") {
		t.Fatalf("err = %v", err)
	}
}

func TestActOnTasksListParsing(t *testing.T) {
	cfg, err := CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="S" type="DISKSCAN">
        <group-by><group granularity="workflow" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1"/>
        <sensors-to-use><use-sensor id="S" granularity="workflow"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="W">
      <apply-policy policyId="P">
        <act-on-tasks>
          Alpha, Beta
          Gamma
        </act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}
	got := cfg.Bindings[0].ActOnTasks
	if len(got) != 3 || got[0] != "Alpha" || got[1] != "Beta" || got[2] != "Gamma" {
		t.Fatalf("act-on = %v", got)
	}
}
