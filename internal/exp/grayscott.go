package exp

import (
	"fmt"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// gsThresholds returns the INC/DEC pace thresholds and the resize step for
// the machine. Summit follows the paper exactly: 50 steps in 30 minutes =>
// 36 s/step ceiling, two-thirds of it (24 s) as the release floor, resize
// by 20 processes. Deepthought2's 35-minute limit gives 42 s and 28 s; the
// single adaptation there moves 40 processes (resources from PDF_Calc and
// FFT together, as the paper reports).
func gsThresholds(m apps.Machine) (inc, dec float64, adjust int) {
	if m == apps.Summit {
		return 36, 24, 20
	}
	return 42, 28, 40
}

// GrayScottXML is the orchestration document for the Gray-Scott workflow —
// the complete version of paper Figures 3, 4, and 5.
func GrayScottXML(m apps.Machine) string { return grayScottXML(m, true) }

// grayScottXML optionally drops the <history> element (the ablation of
// window-averaged evaluation: instantaneous values make noisy single steps
// trigger adaptations).
func grayScottXML(m apps.Machine, withHistory bool) string {
	inc, dec, adjust := gsThresholds(m)
	history := `
        <history window="10" operation="AVG"/>`
	if !withHistory {
		history = ""
	}
	monitor := ""
	applies := ""
	for _, name := range []string{"Isosurface", "Rendering", "FFT", "PDF_Calc"} {
		monitor += fmt.Sprintf(`
      <monitor-task name="%s" workflowId="GS-WORKFLOW" info-source="tau.%s">
        <use-sensor sensor-id="PACE" info="looptime">
          <parameter key="info-type" value="double"/>
        </use-sensor>
      </monitor-task>`, name, name)
		applies += fmt.Sprintf(`
      <apply-policy policyId="INC_ON_PACE" assess-task="%s">
        <act-on-tasks>%s</act-on-tasks>
        <action-params><param key="adjust-by" value="%d"/></action-params>
      </apply-policy>
      <apply-policy policyId="DEC_ON_PACE" assess-task="%s">
        <act-on-tasks>%s</act-on-tasks>
        <action-params><param key="adjust-by" value="%d"/></action-params>
      </apply-policy>`, name, name, adjust, name, name, adjust)
	}
	return fmt.Sprintf(`
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>%s
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC_ON_PACE">
        <eval operation="GT" threshold="%g"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>%s
        <frequency seconds="5"/>
      </policy>
      <policy id="DEC_ON_PACE">
        <eval operation="LT" threshold="%g"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>RMCPU</action>%s
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="GS-WORKFLOW">%s
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="GS-WORKFLOW">
        <task-priorities>
          <task-priority name="GrayScott" priority="0"/>
          <task-priority name="Isosurface" priority="1"/>
          <task-priority name="Rendering" priority="2"/>
          <task-priority name="FFT" priority="3"/>
          <task-priority name="PDF_Calc" priority="4"/>
        </task-priorities>
        <task-dependencies>
          <task-dep name="Isosurface" type="TIGHT" parent="GrayScott"/>
          <task-dep name="FFT" type="TIGHT" parent="GrayScott"/>
          <task-dep name="PDF_Calc" type="TIGHT" parent="GrayScott"/>
          <task-dep name="Rendering" type="TIGHT" parent="Isosurface"/>
        </task-dependencies>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`, monitor, inc, history, dec, history, applies)
}

// GSResult is the outcome of a Gray-Scott run.
type GSResult struct {
	W        *World
	Machine  apps.Machine
	WithDY   bool
	Makespan sim.Time
	// Completed reports whether GrayScott finished all 50 steps within the
	// horizon.
	Completed bool
	// TimeLimit is the paper's allocation limit for the machine.
	TimeLimit time.Duration
	// IsoSizes is the sequence of Isosurface process counts across
	// incarnations (paper: 20 -> 40 -> 60 on Summit).
	IsoSizes []int
	// Victims lists the tasks preempted per plan.
	Victims [][]string
	// PaceBefore / PaceAfter are the average time-per-step (seconds)
	// observed by Decision before the first adaptation and after the last
	// one (Figure 1's throughput framing).
	PaceBefore, PaceAfter float64
}

// GSVariant parameterizes ablation runs of the Gray-Scott experiment.
type GSVariant struct {
	// Arbiter overrides the arbitration guards (nil = paper defaults).
	Arbiter *arbiter.Config
	// NoHistory drops the policies' sliding-window pre-analysis so they
	// evaluate instantaneous values.
	NoHistory bool
	// XML, when non-empty, replaces the generated orchestration document —
	// the campaign service threads user-submitted specs through here.
	XML string
	// Configure, when set, is called on the freshly built world before the
	// run starts (the campaign service attaches its progress/cancel hook).
	Configure func(*World) error
}

// RunGrayScott executes the under-provisioning experiment (Figures 8 and
// 9); withDyflow=false runs the no-orchestration baseline.
func RunGrayScott(seed int64, m apps.Machine, withDyflow bool) (*GSResult, error) {
	return RunGrayScottVariant(seed, m, withDyflow, GSVariant{})
}

// RunGrayScottVariant executes the experiment with ablation knobs.
func RunGrayScottVariant(seed int64, m apps.Machine, withDyflow bool, v GSVariant) (*GSResult, error) {
	cfg := apps.GrayScottConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := w.SV.Compose(apps.GrayScottWorkflow(m)); err != nil {
		return nil, err
	}
	if withDyflow {
		opts := core.Options{}
		if v.Arbiter != nil {
			opts.Arbiter = *v.Arbiter
		}
		xml := v.XML
		if xml == "" {
			xml = grayScottXML(m, !v.NoHistory)
		}
		if err := w.StartOrchestration(xml, opts); err != nil {
			return nil, err
		}
	}
	if v.Configure != nil {
		if err := v.Configure(w); err != nil {
			return nil, err
		}
	}
	w.Launch(apps.GrayScottWorkflowID)

	horizon := 4 * cfg.TimeLimit
	end, err := w.RunUntilWorkflowDone(apps.GrayScottWorkflowID, horizon)
	if err != nil {
		return nil, err
	}
	w.Rec.CloseOpen()

	res := &GSResult{
		W:         w,
		Machine:   m,
		WithDY:    withDyflow,
		Makespan:  end,
		TimeLimit: cfg.TimeLimit,
	}
	gs := w.SV.Instance(apps.GrayScottWorkflowID, "GrayScott")
	res.Completed = gs != nil && gs.State() == task.Completed && gs.StepsDone() >= cfg.TotalSteps

	for _, iv := range w.Rec.TaskIntervals(apps.GrayScottWorkflowID, "Isosurface") {
		res.IsoSizes = append(res.IsoSizes, iv.Procs)
	}
	for _, p := range w.Rec.Plans {
		var victims []string
		for _, op := range p.Plan.Ops {
			if op.Victim {
				victims = append(victims, op.Task)
			}
		}
		res.Victims = append(res.Victims, victims)
	}
	res.PaceBefore, res.PaceAfter = paceBeforeAfter(w.Rec, apps.GrayScottWorkflowID)
	return res, nil
}

// paceBeforeAfter summarizes the PACE series across tasks: "before" is the
// steady state immediately preceding the first adaptation (the last few
// values, skipping pipeline warm-up), "after" the average once the last
// adaptation completed.
func paceBeforeAfter(rec *Recorder, workflow string) (before, after float64) {
	var firstPlan, lastDone sim.Time
	if len(rec.Plans) > 0 {
		firstPlan = rec.Plans[0].ReceivedAt
		lastDone = rec.Plans[len(rec.Plans)-1].ExecutedAt
	}
	var pre []float64
	var na int
	rec.EachMetric(func(m MetricPoint) {
		if m.Key.Workflow != workflow || m.Key.Sensor != "PACE" {
			return
		}
		switch {
		case firstPlan == 0 || m.At < firstPlan:
			pre = append(pre, m.Value)
		case m.At > lastDone:
			after += m.Value
			na++
		}
	})
	const steady = 6
	if len(pre) > steady {
		pre = pre[len(pre)-steady:]
	}
	for _, v := range pre {
		before += v
	}
	if len(pre) > 0 {
		before /= float64(len(pre))
	}
	if na > 0 {
		after /= float64(na)
	}
	return before, after
}

// RunGrayScottOverProvisioned executes the §4.4 over-provisioning variant:
// the workflow starts with oversized analyses and a fast simulation, so
// every task paces below the release floor and DEC_ON_PACE shrinks the
// analyses until the pace re-enters the desired band.
func RunGrayScottOverProvisioned(seed int64, m apps.Machine) (*GSResult, error) {
	return RunGrayScottOverProvisionedVariant(seed, m, GSVariant{})
}

// RunGrayScottOverProvisionedVariant executes the over-provisioning variant
// with the GSVariant hooks (XML override, world configuration) applied.
func RunGrayScottOverProvisionedVariant(seed int64, m apps.Machine, v GSVariant) (*GSResult, error) {
	cfg := apps.GrayScottConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes+4)
	if err != nil {
		return nil, err
	}
	wf := apps.GrayScottWorkflow(m)
	// Re-shape for over-provisioning: a faster simulation (its own pace
	// sits just below the release floor) and an oversized Isosurface. The
	// initial placement shapes are relaxed (spread) since the Table 2
	// node-packing no longer applies to this variant.
	for i := range wf.Tasks {
		t := &wf.Tasks[i]
		switch t.Spec.Name {
		case "GrayScott":
			t.Spec.Cost = task.Cost{Serial: 2 * time.Second, Work: 6120 * time.Second, Noise: 0.02} // ~20 s at 340
		case "Isosurface":
			// 15 s at 80 procs, 18.7 s at 60, 26 s at 40 — so DEC_ON_PACE
			// fires twice and the final size rests safely above the 24 s
			// release floor (at 40 the pace is Isosurface-bound at 26 s).
			t.Spec.Cost = task.Cost{Serial: 4 * time.Second, Work: 880 * time.Second, Noise: 0.02}
			t.Procs = 80
		case "FFT":
			t.Procs = 40 // ~17.5 s instead of the under-provisioned 30 s
		}
		if t.Spec.Name != "GrayScott" {
			t.ProcsPerNode = 0 // spread
		}
	}
	if err := w.SV.Compose(wf); err != nil {
		return nil, err
	}
	// The post-restart pipeline-refill transient (the first reading of a
	// new incarnation includes the wait for the producer's next record)
	// is large relative to this scenario's fast pace; a longer settle
	// window lets steady-state readings dilute it out of the history
	// before evaluation resumes.
	acfg := arbiter.DefaultConfig()
	acfg.SettleDelay = 4 * time.Minute
	xml := v.XML
	if xml == "" {
		xml = GrayScottXML(m)
	}
	if err := w.StartOrchestration(xml, core.Options{Arbiter: acfg}); err != nil {
		return nil, err
	}
	if v.Configure != nil {
		if err := v.Configure(w); err != nil {
			return nil, err
		}
	}
	w.Launch(apps.GrayScottWorkflowID)
	end, err := w.RunUntilWorkflowDone(apps.GrayScottWorkflowID, 4*cfg.TimeLimit)
	if err != nil {
		return nil, err
	}
	w.Rec.CloseOpen()
	res := &GSResult{W: w, Machine: m, WithDY: true, Makespan: end, TimeLimit: cfg.TimeLimit}
	gs := w.SV.Instance(apps.GrayScottWorkflowID, "GrayScott")
	res.Completed = gs != nil && gs.State() == task.Completed
	for _, iv := range w.Rec.TaskIntervals(apps.GrayScottWorkflowID, "Isosurface") {
		res.IsoSizes = append(res.IsoSizes, iv.Procs)
	}
	res.PaceBefore, res.PaceAfter = paceBeforeAfter(w.Rec, apps.GrayScottWorkflowID)
	return res, nil
}

// FreedCores computes how many cores the over-provisioning run returned to
// the free pool by its end.
func (r *GSResult) FreedCores() int {
	if len(r.IsoSizes) < 2 {
		return 0
	}
	return r.IsoSizes[0] - r.IsoSizes[len(r.IsoSizes)-1]
}
