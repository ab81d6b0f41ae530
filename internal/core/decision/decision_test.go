package decision

import (
	"reflect"
	"testing"
	"time"

	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

const cfgXML = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
      <sensor id="NSTEPS" type="DISKSCAN">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="MAX"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Iso" workflowId="GS" info-source="tau.Iso">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC_ON_PACE">
        <eval operation="GT" threshold="36"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
        <history window="3" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>
      <policy id="SWITCH_ON_COND">
        <eval operation="EQ" threshold="374"/>
        <sensors-to-use><use-sensor id="NSTEPS" granularity="workflow"/></sensors-to-use>
        <action>SWITCH</action>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="GS">
      <apply-policy policyId="INC_ON_PACE" assess-task="Iso">
        <act-on-tasks>Iso</act-on-tasks>
        <action-params><param key="adjust-by" value="20"/></action-params>
      </apply-policy>
      <apply-policy policyId="SWITCH_ON_COND" assess-task="XGCA">
        <act-on-tasks>XGC1</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
</dyflow>`

func metric(wf, tsk, sens string, g spec.Granularity, v float64, at sim.Time) sensor.Metric {
	k := sensor.Key{Workflow: wf, Task: tsk, Sensor: sens, Granularity: g}
	return sensor.Metric{
		Key:         k,
		Series:      &sensor.Series{Key: k},
		Value:       v,
		GeneratedAt: at,
		ObservedAt:  at,
	}
}

func newEngine(t *testing.T) (*sim.Sim, *Engine) {
	t.Helper()
	cfg, err := spec.CompileString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	return s, New(s, s.Spawn, bus, "decision", "arbiter", cfg, trace.New(obs.NewRegistry()))
}

// filterPolicy keeps only one policy's suggestions (other bindings may
// legitimately keep firing on their stored series).
func filterPolicy(sgs []Suggestion, policy string) []Suggestion {
	var out []Suggestion
	for _, sg := range sgs {
		if sg.Rule.PolicyID() == policy {
			out = append(out, sg)
		}
	}
	return out
}

func TestHistoryAveragedEvaluation(t *testing.T) {
	s, e := newEngine(t)
	// Values 30, 40, 50: instantaneous 40 > 36 already at the second
	// update, but the window average only crosses 36 at the third
	// ((30+40+50)/3 = 40). Evaluations run after each value's arrival;
	// arrivals are 6 s apart so every one is due.
	var got []Suggestion
	step := func(v float64) {
		e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, v, s.Now()))
		got = append(got, filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE")...)
	}
	step(30)
	s.After(6*time.Second, func() { step(40) })
	s.After(12*time.Second, func() { step(50) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("suggestions = %+v, want exactly 1", got)
	}
	sg := got[0]
	if sg.Rule.PolicyID() != "INC_ON_PACE" || sg.Rule.action != "ADDCPU" {
		t.Fatalf("suggestion = %+v", sg)
	}
	if sg.MetricValue != 40 {
		t.Fatalf("metric value = %v, want window average 40", sg.MetricValue)
	}
	if v, _ := sg.Rule.Param("adjust-by"); v != "20" {
		t.Fatalf("adjust-by = %q", v)
	}
}

func TestFrequencyGating(t *testing.T) {
	s, e := newEngine(t)
	// Fresh above-threshold data arrives every second for 11 s and the
	// evaluator ticks alongside: with a 5 s frequency the policy fires at
	// most every 5 s — 3 times (t=0, 5, 10).
	count := 0
	for i := 0; i <= 10; i++ {
		at := time.Duration(i) * time.Second
		s.At(at, func() {
			e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, s.Now()))
			count += len(filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE"))
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("suggestions = %d, want 3 (frequency-gated)", count)
	}
}

func TestNoEvaluationWithoutData(t *testing.T) {
	_, e := newEngine(t)
	tr := e.tr
	if got := e.EvaluateDue(nil); len(got) != 0 {
		t.Fatalf("suggestions with no data = %+v", got)
	}
	if got := tr.Counter("decision.evaluations"); got != 0 {
		t.Fatalf("evaluations = %d, want 0 (no series yet)", got)
	}
}

func TestEQConditionOnWorkflowMetric(t *testing.T) {
	s, e := newEngine(t)
	var got []Suggestion
	vals := []float64{370, 372, 374, 376}
	for i, v := range vals {
		at := time.Duration(i*6) * time.Second
		v := v
		s.At(at, func() {
			e.Ingest(metric("GS", "", "NSTEPS", spec.GranWorkflow, v, s.Now()))
			got = append(got, filterPolicy(e.EvaluateDue(nil), "SWITCH_ON_COND")...)
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("suggestions = %+v, want 1 (only the EQ match)", got)
	}
	if got[0].Rule.PolicyID() != "SWITCH_ON_COND" || got[0].MetricValue != 374 {
		t.Fatalf("suggestion = %+v", got[0])
	}
	if r := got[0].Rule; r.NumActOnTasks() != 1 || r.ActOnTask(0) != "XGC1" {
		t.Fatalf("act-on = %+v", r)
	}
}

func TestMetricForWrongTaskIgnored(t *testing.T) {
	_, e := newEngine(t)
	e.Ingest(metric("GS", "FFT", "PACE", spec.GranTask, 100, 0))
	e.Ingest(metric("OTHER", "Iso", "PACE", spec.GranTask, 100, 0))
	if got := e.EvaluateDue(nil); len(got) != 0 {
		t.Fatalf("suggestions for unmatched metrics = %+v", got)
	}
}

func TestResetTaskClearsHistory(t *testing.T) {
	s, e := newEngine(t)
	e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, 0))
	if got := filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE"); len(got) != 1 {
		t.Fatalf("priming suggestion count = %d", len(got))
	}
	e.ResetTask("GS", "Iso")
	// After a reset, evaluation with no fresh data must not fire even
	// though the pre-reset history was far above threshold.
	var got []Suggestion
	s.After(10*time.Second, func() {
		got = filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE")
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("post-reset suggestions = %+v, want none", got)
	}
}

func TestSameRoundBatchesAcrossBindings(t *testing.T) {
	// Metrics for two different bindings stored before one evaluation
	// round produce a single combined batch.
	s, e := newEngine(t)
	e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, 0))
	e.Ingest(metric("GS", "", "NSTEPS", spec.GranWorkflow, 374, 0))
	got := e.EvaluateDue(nil)
	if len(got) != 2 {
		t.Fatalf("round = %+v, want both policies' suggestions together", got)
	}
	_ = s
}

func TestEndToEndOverBus(t *testing.T) {
	cfg, err := spec.CompileString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	arb := bus.Endpoint("arbiter")
	tr := trace.New(obs.NewRegistry())
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, tr)
	e.Start()

	mon := bus.Endpoint("monitor-server")
	s.Spawn("feeder", func(p *sim.Proc) {
		m := metric("GS", "Iso", "PACE", spec.GranTask, 100, p.Now())
		mon.Send("decision", &sensor.MetricList{Msgs: []sensor.MetricMsg{m.ToMsg()}})
	})
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	env, ok := arb.TryRecv()
	if !ok {
		t.Fatal("no suggestion batch delivered to arbiter")
	}
	r, err := msg.Payload[*Round](&env)
	if err != nil {
		t.Fatal(err)
	}
	if batch := r.Sugs; len(batch) != 1 || batch[0].Rule.action != "ADDCPU" {
		t.Fatalf("batch = %+v", batch)
	}
	r.Release()
	if got := tr.Counter("decision.suggestions"); got < 1 {
		t.Fatalf("decision.suggestions = %d", got)
	}
	e.Stop()
	s.RunUntilIdle()
}

// TestPredictiveSlopePolicy exercises the SLOPE pre-analysis (the paper's
// future-work "pro-active or predictive" direction): the policy fires on a
// growing trend while the absolute values are still far below any hard
// limit.
func TestPredictiveSlopePolicy(t *testing.T) {
	cfg, err := spec.CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="MEM" type="ADIOS2">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Sim" workflowId="W" info-source="mem.Sim">
        <use-sensor sensor-id="MEM" info="rss"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="LEAK_GUARD">
        <eval operation="GT" threshold="2"/>
        <sensors-to-use><use-sensor id="MEM" granularity="task"/></sensors-to-use>
        <action>RESTART</action>
        <history window="6" operation="SLOPE"/>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="W">
      <apply-policy policyId="LEAK_GUARD" assess-task="Sim">
        <act-on-tasks>Sim</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, trace.New(obs.NewRegistry()))

	feed := func(v float64) []Suggestion {
		e.Ingest(metric("W", "Sim", "MEM", spec.GranTask, v, s.Now()))
		return e.EvaluateDue(nil)
	}
	// Stable memory: high absolute value, zero slope — must not fire.
	var fired []Suggestion
	for i := 0; i < 6; i++ {
		v := 100.0
		at := time.Duration(i*6) * time.Second
		s.At(at, func() { fired = append(fired, feed(v)...) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("flat memory fired %v", fired)
	}
	// Growing memory: +5 per reading — slope crosses the threshold long
	// before any absolute limit would.
	fired = nil
	for i := 0; i < 6; i++ {
		v := 100.0 + 5*float64(i+1)
		at := time.Duration((6+i)*6) * time.Second
		s.At(at, func() { fired = append(fired, feed(v)...) })
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) == 0 {
		t.Fatal("growing memory never fired the predictive policy")
	}
	if fired[0].Rule.action != "RESTART" {
		t.Fatalf("suggestion = %+v", fired[0])
	}
}

// TestNodeTaskGranularityBinding: a policy bound at node-task granularity
// fires when ANY node's series satisfies the condition.
func TestNodeTaskGranularityBinding(t *testing.T) {
	cfg, err := spec.CompileString(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="MEM" type="TAUADIOS2">
        <group-by><group granularity="node-task" reduction-operation="SUM"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Sim" workflowId="W" info-source="tau.Sim">
        <use-sensor sensor-id="MEM"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="NODE_HOT">
        <eval operation="GT" threshold="90"/>
        <sensors-to-use><use-sensor id="MEM" granularity="node-task"/></sensors-to-use>
        <action>RESTART</action>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="W">
      <apply-policy policyId="NODE_HOT" assess-task="Sim">
        <act-on-tasks>Sim</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
</dyflow>`)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, trace.New(obs.NewRegistry()))

	mk := func(node string, v float64) sensor.Metric {
		k := sensor.Key{Workflow: "W", Task: "Sim", Sensor: "MEM", Granularity: spec.GranNodeTask, Node: node}
		return sensor.Metric{Key: k, Series: &sensor.Series{Key: k}, Value: v}
	}
	e.Ingest(mk("node000", 50))
	e.Ingest(mk("node001", 60))
	if got := e.EvaluateDue(nil); len(got) != 0 {
		t.Fatalf("below-threshold nodes fired %v", got)
	}
	s.After(6*time.Second, func() {
		e.Ingest(mk("node001", 95)) // one hot node suffices
	})
	var fired []Suggestion
	s.After(7*time.Second, func() { fired = e.EvaluateDue(nil) })
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0].MetricValue != 95 {
		t.Fatalf("fired = %+v, want the hot node's value", fired)
	}
}

// TestParamsNotAliasedIntoSuggestion: a suggestion names its binding's
// rule, and nothing it exposes can change what a later round suggests:
// no exported field reachable from a Suggestion is a map or a slice, a
// Rule has no exported field at all (every suggestion of a binding shares
// it, and it is read through accessors), and a later round still reads
// the spec's adjust-by=20 from the same descriptor.
func TestParamsNotAliasedIntoSuggestion(t *testing.T) {
	if got := mutableFields(reflect.TypeOf(Suggestion{}), "Suggestion", map[reflect.Type]bool{}); len(got) > 0 {
		t.Fatalf("exported maps or slices a downstream stage could write: %v", got)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Rule{})) {
		if f.IsExported() {
			t.Fatalf("Rule.%s is exported: a write to it would change every suggestion of the binding", f.Name)
		}
	}
	s, e := newEngine(t)
	e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, s.Now()))
	got := filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE")
	if len(got) != 1 {
		t.Fatalf("priming round = %+v, want 1 suggestion", got)
	}
	if v, _ := got[0].Rule.Param("adjust-by"); v != "20" {
		t.Fatalf("priming suggestion's adjust-by = %q", v)
	}

	s.At(6*time.Second, func() {
		e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, s.Now()))
		next := filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE")
		if len(next) != 1 {
			t.Fatalf("second round = %+v, want 1 suggestion", next)
		}
		if v, _ := next[0].Rule.Param("adjust-by"); v != "20" {
			t.Fatalf("adjust-by = %q, want the spec's 20", v)
		}
		if next[0].Rule != got[0].Rule || next[0].Seq != got[0].Seq+1 {
			t.Fatalf("second suggestion names rule %p #%d, want the binding's %p #%d", next[0].Rule, next[0].Seq, got[0].Rule, got[0].Seq+1)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

// mutableFields lists the exported fields reachable from typ, through
// exported pointer and struct fields, that are maps or slices.
func mutableFields(typ reflect.Type, path string, seen map[reflect.Type]bool) []string {
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct || seen[typ] {
		return nil
	}
	seen[typ] = true
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Map, reflect.Slice:
			out = append(out, path+"."+f.Name)
		default:
			out = append(out, mutableFields(f.Type, path+"."+f.Name, seen)...)
		}
	}
	return out
}

func TestStaleSeriesStopsFiring(t *testing.T) {
	s, e := newEngine(t)
	// Data arrives every second for 5 s, establishing a 1 s cadence, then
	// the producer stops (e.g. the assessed task ended). The policy may
	// keep firing briefly — within the staleness horizon of a few missed
	// intervals — but must go quiet afterwards instead of re-firing its
	// frozen window every frequency period forever.
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * time.Second
		s.At(at, func() {
			e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, s.Now()))
		})
	}
	fires := map[time.Duration]int{}
	for _, at := range []time.Duration{5, 10, 15, 30, 60} {
		at := at * time.Second
		s.At(at, func() {
			fires[at] = len(filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE"))
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// t=5s: last value landed 1 s ago — still live, fires.
	if fires[5*time.Second] != 1 {
		t.Fatalf("fires at 5s = %d, want 1 (within horizon)", fires[5*time.Second])
	}
	// From t=10s on the series is 6+ s past its 1 s cadence: stale.
	for _, at := range []time.Duration{10 * time.Second, 15 * time.Second, 30 * time.Second, 60 * time.Second} {
		if fires[at] != 0 {
			t.Fatalf("fires at %v = %d, want 0 (series stale, producer stopped)", at, fires[at])
		}
	}
}

func TestSingleArrivalStaysLive(t *testing.T) {
	s, e := newEngine(t)
	// With only one arrival the cadence is unknown, so the series cannot
	// be declared stale: the policy keeps firing at its frequency.
	count := 0
	s.At(time.Second, func() {
		e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, s.Now()))
	})
	for _, at := range []time.Duration{1, 6, 11} {
		at := at * time.Second
		s.At(at, func() {
			count += len(filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE"))
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("fires = %d, want 3 (single-arrival series stays live)", count)
	}
}

func TestNoRefireEveryTickAfterTimeZeroEval(t *testing.T) {
	s, e := newEngine(t)
	// A binding first evaluated at t=0 has lastEval==0; that must still
	// count as "evaluated" so the frequency gate holds on later ticks.
	e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, 0))
	count := len(filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE"))
	if count != 1 {
		t.Fatalf("fires at t=0 = %d, want 1", count)
	}
	for i := 1; i <= 4; i++ {
		at := time.Duration(i) * time.Second
		s.At(at, func() {
			count += len(filterPolicy(e.EvaluateDue(nil), "INC_ON_PACE"))
		})
	}
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("fires within the first frequency period = %d, want 1 (t=0 eval forgotten)", count)
	}
}

func TestResetTaskKillsInstantaneousValue(t *testing.T) {
	s, e := newEngine(t)
	// SWITCH_ON_COND has no history window: it evaluates the instantaneous
	// value. After a reset, the retained last value must not re-fire.
	s.At(time.Second, func() {
		e.Ingest(metric("GS", "", "NSTEPS", spec.GranWorkflow, 374, s.Now()))
		if got := filterPolicy(e.EvaluateDue(nil), "SWITCH_ON_COND"); len(got) != 1 {
			t.Fatalf("priming fire = %+v, want 1", got)
		}
		e.ResetTask("GS", "XGCA")
	})
	s.At(7*time.Second, func() {
		if got := filterPolicy(e.EvaluateDue(nil), "SWITCH_ON_COND"); len(got) != 0 {
			t.Fatalf("post-reset fire on retained value = %+v", got)
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}
