package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/core/spec"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// A Job is one self-contained campaign submission: which scenario world to
// build, on which machine, with which seed, and (optionally) a user-supplied
// XML orchestration document replacing the scenario's shipped one. Runs are
// byte-deterministic in the Job value — equal Jobs produce byte-identical
// artifacts — which is what makes the campaign service's result cache sound.
type Job struct {
	// Scenario selects the workflow world: quickstart, grayscott, overprov,
	// xgc, lammps, or chaos.
	Scenario string `json:"scenario"`
	// Machine is "summit" (default) or "dt2".
	Machine string `json:"machine,omitempty"`
	// Seed fixes every stochastic choice.
	Seed int64 `json:"seed"`
	// XML optionally overrides the scenario's orchestration document.
	XML string `json:"xml,omitempty"`
}

// The supported job scenarios.
const (
	ScenarioQuickstart = "quickstart"
	ScenarioGrayScott  = "grayscott"
	ScenarioOverprov   = "overprov"
	ScenarioXGC        = "xgc"
	ScenarioLAMMPS     = "lammps"
	ScenarioChaos      = "chaos"
)

// Scenarios lists the supported scenario names.
func Scenarios() []string {
	return []string{ScenarioQuickstart, ScenarioGrayScott, ScenarioOverprov,
		ScenarioXGC, ScenarioLAMMPS, ScenarioChaos}
}

// Normalized canonicalizes the job (case, machine aliases, defaults) and
// validates it, compiling a supplied XML document so malformed submissions
// fail fast instead of burning a worker slot.
func (j Job) Normalized() (Job, error) {
	j.Scenario = strings.ToLower(strings.TrimSpace(j.Scenario))
	j.Machine = strings.ToLower(strings.TrimSpace(j.Machine))
	switch j.Machine {
	case "", "summit":
		j.Machine = "summit"
	case "dt2", "deepthought2":
		j.Machine = "dt2"
	default:
		return j, fmt.Errorf("exp: unknown machine %q (want summit or dt2)", j.Machine)
	}
	ok := false
	for _, s := range Scenarios() {
		if j.Scenario == s {
			ok = true
			break
		}
	}
	if !ok {
		return j, fmt.Errorf("exp: unknown scenario %q (want one of %s)", j.Scenario, strings.Join(Scenarios(), ", "))
	}
	if j.XML != "" {
		if _, err := spec.CompileString(j.XML); err != nil {
			return j, fmt.Errorf("exp: job spec: %w", err)
		}
	}
	return j, nil
}

// machine maps the job's machine name to the apps constant.
func (j Job) machine() apps.Machine {
	if j.Machine == "dt2" {
		return apps.Deepthought2
	}
	return apps.Summit
}

// Key returns the job's cache key: a digest over (spec hash, scenario,
// seed, machine). Two jobs with equal keys produce byte-identical results.
func (j Job) Key() string {
	specHash := sha256.Sum256([]byte(j.XML))
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%x", j.Scenario, j.Machine, j.Seed, specHash)
	return hex.EncodeToString(h.Sum(nil))
}

// The artifact names every completed job carries.
const (
	ArtifactReport   = "report"   // report.json — the paper-style comparison table
	ArtifactGantt    = "gantt"    // gantt.txt — ASCII Gantt chart of the run
	ArtifactPerfetto = "perfetto" // perfetto.json — Chrome trace-event timeline
	ArtifactMetrics  = "metrics"  // metrics.json — the run's private registry snapshot
)

// JobOutcome is a completed job: the report plus the rendered artifacts.
// The world itself is not retained — artifacts are rendered eagerly so a
// finished run costs bytes, not a live simulation.
type JobOutcome struct {
	Job       Job               `json:"job"`
	Converged bool              `json:"converged"`
	SimEnd    time.Duration     `json:"sim_end"`
	Report    *Report           `json:"report"`
	Artifacts map[string][]byte `json:"artifacts"`
}

// RunJob executes one campaign job to completion. configure (optional) is
// invoked on the world before the run starts — the campaign service uses it
// to attach World.OnProgress for live progress and cancellation. The
// returned outcome's artifacts are byte-deterministic in the job value.
//
// RunJob owns the world it builds and closes it on every return — finished,
// cancelled through OnProgress, or failed — so a caller that kept the
// pointer from configure may read the world afterwards but never has to
// release it.
func RunJob(j Job, configure func(*World) error) (*JobOutcome, error) {
	j, err := j.Normalized()
	if err != nil {
		return nil, err
	}
	m := j.machine()
	var (
		w      *World
		events []cluster.CampaignEvent
		rep    *Report
		conv   bool
	)
	// Every runner hands its world to the configure hook before anything
	// runs. RunJob takes the world from there and not from the runner's
	// result, because a runner that fails returns none.
	hook := func(built *World) error {
		w = built
		if configure == nil {
			return nil
		}
		return configure(built)
	}
	defer func() {
		if w != nil {
			w.Close()
		}
	}()
	switch j.Scenario {
	case ScenarioQuickstart:
		_, rep, conv, err = runQuickstartJob(j, hook)
	case ScenarioGrayScott:
		var res *GSResult
		res, err = RunGrayScottVariant(j.Seed, m, true, GSVariant{XML: j.XML, Configure: hook})
		if err == nil {
			rep, conv = GrayScottReport(res, nil), res.Completed
		}
	case ScenarioOverprov:
		var res *GSResult
		res, err = RunGrayScottOverProvisionedVariant(j.Seed, m, GSVariant{XML: j.XML, Configure: hook})
		if err == nil {
			rep, conv = OverProvisionReport(res), res.Completed
		}
	case ScenarioXGC:
		var res *XGCResult
		res, err = RunXGCVariant(j.Seed, m, XGCVariant{XML: j.XML, Configure: hook})
		if err == nil {
			rep, conv = XGCReport(res, 0), res.FinalStep > 500
		}
	case ScenarioLAMMPS:
		var res *LAMMPSResult
		res, err = RunLAMMPSVariant(j.Seed, m, true, LAMMPSVariant{XML: j.XML, Configure: hook})
		if err == nil {
			rep, conv = LAMMPSReport(res), res.Completed
		}
	case ScenarioChaos:
		opts := DefaultChaosOptions()
		opts.XML = j.XML
		var cr *ChaosRun
		cr, err = NewChaosRun(j.Seed, m, opts)
		if err == nil {
			err = hook(cr.W)
			for err == nil {
				var done bool
				done, err = cr.Step(5 * time.Second)
				if done {
					break
				}
			}
			if err == nil {
				res := cr.Result()
				rep, conv, events = chaosReport(res), res.Converged, res.Events
			}
		}
	}
	if err != nil {
		return nil, err
	}
	arts, err := jobArtifacts(w, events, rep)
	if err != nil {
		return nil, err
	}
	return &JobOutcome{
		Job:       j,
		Converged: conv,
		SimEnd:    time.Duration(w.Sim.Now()),
		Report:    rep,
		Artifacts: arts,
	}, nil
}

// jobArtifacts renders the outcome's artifact set from the finished world.
func jobArtifacts(w *World, events []cluster.CampaignEvent, rep *Report) (map[string][]byte, error) {
	w.Rec.CloseOpen()
	report, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	var gantt, perfetto, metrics bytes.Buffer
	w.Rec.Gantt(&gantt, 100)
	if err := WritePerfetto(&perfetto, w, events); err != nil {
		return nil, err
	}
	if err := w.Metrics.WriteJSON(&metrics); err != nil {
		return nil, err
	}
	return map[string][]byte{
		ArtifactReport:   append(report, '\n'),
		ArtifactGantt:    gantt.Bytes(),
		ArtifactPerfetto: perfetto.Bytes(),
		ArtifactMetrics:  metrics.Bytes(),
	}, nil
}

// chaosReport frames a chaos campaign outcome as a Report so every job
// scenario ships the same artifact shape.
func chaosReport(res *ChaosResult) *Report {
	r := &Report{ID: "Chaos", Title: fmt.Sprintf("Fault-injection campaign (%s, seed %d)", res.Machine, res.Seed)}
	r.Add("kills fired", "survivable", fmt.Sprint(countEvents(res.Events, "kill")), true)
	r.Add("heals fired", "each kill healed", fmt.Sprint(countEvents(res.Events, "heal")), true)
	r.Add("injected carve faults", "retried away", fmt.Sprint(res.InjectedCarves), true)
	r.Add("arbitration rounds", "> 0", fmt.Sprint(res.Rounds), res.Rounds > 0)
	r.Add("actuation retries", "recovered", fmt.Sprint(res.Retries), true)
	r.Add("requeued tasks", "recovered", fmt.Sprint(res.RequeuedTasks), true)
	r.Add("leaked assignments", "none", fmt.Sprint(len(res.Leaked)), len(res.Leaked) == 0)
	r.Add("converged", "true", fmt.Sprint(res.Converged), res.Converged)
	return r
}

// The quickstart scenario: the two-task in situ demo from
// examples/quickstart, shortened so the campaign service's load tests get a
// cheap but real orchestrated run (an under-provisioned analysis grown by a
// pace policy).
const quickstartWorkflowID = "DEMO"

const quickstartXML = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Analysis" workflowId="DEMO" info-source="tau.Analysis">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="INC_ON_PACE">
        <eval operation="GT" threshold="10"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
        <history window="5" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="DEMO">
      <apply-policy policyId="INC_ON_PACE" assess-task="Analysis">
        <act-on-tasks>Analysis</act-on-tasks>
        <action-params><param key="adjust-by" value="6"/></action-params>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="DEMO">
        <task-priorities>
          <task-priority name="Simulation" priority="0"/>
          <task-priority name="Analysis" priority="1"/>
        </task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`

func runQuickstartJob(j Job, configure func(*World) error) (*World, *Report, bool, error) {
	const steps = 240
	w, err := NewWorld(j.Seed, j.machine(), 2)
	if err != nil {
		return nil, nil, false, err
	}
	err = w.SV.Compose(&wms.WorkflowSpec{
		ID: quickstartWorkflowID,
		Tasks: []wms.TaskConfig{
			{
				Spec: task.Spec{
					Name: "Simulation", Workflow: quickstartWorkflowID,
					Cost:       task.Cost{Work: 10 * time.Second},
					TotalSteps: steps,
					ProducesTo: "demo.out",
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			{
				Spec: task.Spec{
					Name: "Analysis", Workflow: quickstartWorkflowID,
					Cost:         task.Cost{Work: 40 * time.Second},
					ConsumesFrom: "demo.out", ConsumeBuf: 1,
					Profile: true,
				},
				Procs: 2, ProcsPerNode: 1, AutoStart: true,
			},
		},
	})
	if err != nil {
		return nil, nil, false, err
	}
	xml := j.XML
	if xml == "" {
		xml = quickstartXML
	}
	opts := core.Options{Arbiter: arbiter.Config{
		WarmupDelay:  time.Minute,
		SettleDelay:  time.Minute,
		PlanCost:     100 * time.Millisecond,
		GatherWindow: 5 * time.Second,
	}}
	if err := w.StartOrchestration(xml, opts); err != nil {
		return nil, nil, false, err
	}
	if configure != nil {
		if err := configure(w); err != nil {
			return nil, nil, false, err
		}
	}
	w.Launch(quickstartWorkflowID)
	end, err := w.RunUntilWorkflowDone(quickstartWorkflowID, 4*time.Hour)
	if err != nil {
		return nil, nil, false, err
	}
	w.Rec.CloseOpen()

	sim := w.SV.Instance(quickstartWorkflowID, "Simulation")
	completed := sim != nil && sim.State() == task.Completed && sim.StepsDone() >= steps
	var finalProcs int
	if in := w.SV.Instance(quickstartWorkflowID, "Analysis"); in != nil {
		finalProcs = in.Placement.Procs()
	}
	rep := &Report{ID: "Quickstart", Title: "In situ pace adaptation (demo workflow)"}
	rep.Add("simulation completes", fmt.Sprintf("%d steps", steps), fmt.Sprint(completed), completed)
	rep.Add("adaptations", ">= 1", fmt.Sprint(len(w.Rec.Plans)), len(w.Rec.Plans) >= 1)
	rep.Add("analysis grown", "> 2 procs", fmt.Sprint(finalProcs), finalProcs > 2)
	rep.Add("makespan", "bounded", time.Duration(end).Round(time.Second).String(), true)
	return w, rep, completed, nil
}
