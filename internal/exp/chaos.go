package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/core"
	"dyflow/internal/resmgr"
	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// ChaosOptions tunes the seeded fault-injection campaign RunChaos drives
// against the Gray-Scott scenario.
type ChaosOptions struct {
	// SpareNodes is allocated beyond the workflow's Table-2 node count, so
	// recovery has somewhere to restart tasks while a node is down.
	SpareNodes int
	// KillStart/KillEnd bound the campaign window; KillEvery is the mean
	// (exponential) gap between kills.
	KillStart time.Duration
	KillEnd   time.Duration
	KillEvery time.Duration
	// HealAfter restores each killed node after this long.
	HealAfter time.Duration
	// MaxDown caps concurrently dead nodes.
	MaxDown int
	// CarveFailProb injects flaky carves into the resource manager with
	// this per-call probability (exercising Actuation's retry path).
	CarveFailProb float64
	// OrchKills tears the orchestrator itself down this many times during
	// the campaign window, restoring a successor from its checkpoint each
	// time. Kills are spread evenly across [KillStart, KillEnd] and
	// deferred to the next tick boundary where the arbiter is not mid-round.
	OrchKills int
	// Horizon bounds the run.
	Horizon time.Duration
}

// DefaultChaosOptions returns a survivable campaign: one node down at a
// time, healed within minutes, plus mildly flaky carves.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		SpareNodes:    1,
		KillStart:     3 * time.Minute,
		KillEnd:       30 * time.Minute,
		KillEvery:     8 * time.Minute,
		HealAfter:     6 * time.Minute,
		MaxDown:       1,
		CarveFailProb: 0.05,
		Horizon:       3 * time.Hour,
	}
}

// ChaosResult summarizes one chaos campaign run.
type ChaosResult struct {
	Seed    int64
	Machine apps.Machine
	Opts    ChaosOptions

	// Campaign outcome.
	ScheduledKills int
	Events         []cluster.CampaignEvent
	InjectedCarves int
	// OrchKills counts orchestrator teardown/restore cycles fired.
	OrchKills int

	// Recovery-layer counters (from the flight recorder).
	Rounds        int64
	FailedRounds  int64
	Retries       int64
	RecoveredOps  int64
	RequeuedTasks int64

	// Convergence: the simulation completed, every task terminated, and no
	// resource assignment leaked past its task.
	Converged     bool
	GSState       string
	GSIncarnation int
	Leaked        []string
	End           sim.Time

	// W is the world the campaign ran in, kept so callers can render the
	// run (Perfetto timeline, Gantt, /metrics) after the fact.
	W *World
}

// Write renders the campaign report.
func (r *ChaosResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Chaos campaign: Gray-Scott on %s, seed %d\n", r.Machine, r.Seed)
	fmt.Fprintf(w, "  kills scheduled/fired: %d/%d, heals: %d, injected carve faults: %d\n",
		r.ScheduledKills, countEvents(r.Events, "kill"), countEvents(r.Events, "heal"), r.InjectedCarves)
	if r.Opts.OrchKills > 0 {
		fmt.Fprintf(w, "  orchestrator kills (checkpoint restores): %d/%d\n", r.OrchKills, r.Opts.OrchKills)
	}
	for _, ev := range r.Events {
		fmt.Fprintf(w, "    %s\n", ev)
	}
	fmt.Fprintf(w, "  arbitration rounds: %d (%d failed), actuation retries: %d, recovered ops: %d, requeued tasks: %d\n",
		r.Rounds, r.FailedRounds, r.Retries, r.RecoveredOps, r.RequeuedTasks)
	fmt.Fprintf(w, "  GrayScott: %s (incarnation %d), end %v\n", r.GSState, r.GSIncarnation, r.End)
	if len(r.Leaked) > 0 {
		fmt.Fprintf(w, "  LEAKED ASSIGNMENTS: %s\n", strings.Join(r.Leaked, ", "))
	}
	fmt.Fprintf(w, "  converged: %v\n", r.Converged)
}

func countEvents(evs []cluster.CampaignEvent, kind string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// RunChaos runs the Gray-Scott scenario with restart policies under a
// seeded kill/heal campaign and flaky-carve injection, and checks that the
// workflow still converges with no leaked resource assignment. The same
// seed replays the same campaign.
func RunChaos(seed int64, m apps.Machine, opts ChaosOptions) (*ChaosResult, error) {
	return RunChaosVariant(seed, m, opts, Variant{})
}

// RunChaosVariant is RunChaos with the variant applied. A variant document
// is used as-is: no recovery policies are spliced into it.
func RunChaosVariant(seed int64, m apps.Machine, opts ChaosOptions, v Variant) (*ChaosResult, error) {
	cfg := apps.GrayScottConfigFor(m)
	w, err := NewWorld(seed, m, cfg.Nodes+opts.SpareNodes)
	if err != nil {
		return nil, err
	}
	if err := w.SV.Compose(apps.GrayScottWorkflow(m)); err != nil {
		return nil, err
	}
	if err := w.orchestrate(v, spliceRecovery(GrayScottXML(m)), core.Options{}); err != nil {
		return nil, err
	}

	// Flaky carves draw from their own seeded stream (offset so the carve
	// draws do not mirror the campaign's), as does the kill schedule: the
	// whole campaign replays for a fixed seed.
	faults := resmgr.NewFaults(seed+1<<32, opts.CarveFailProb)
	w.RM.InjectFaults(faults)
	w.campaign = cluster.NewCampaign(w.Cluster, cluster.CampaignConfig{
		Seed:        seed,
		Start:       opts.KillStart,
		End:         opts.KillEnd,
		MeanBetween: opts.KillEvery,
		HealAfter:   opts.HealAfter,
		MaxDown:     opts.MaxDown,
	})
	w.campaign.SetMetrics(w.Metrics)
	res := &ChaosResult{Seed: seed, Machine: m, Opts: opts, ScheduledKills: w.campaign.Schedule(), W: w}

	// Orchestrator kills: evenly spread deadlines (deterministic for a fixed
	// option set, so killed and uninterrupted runs of the same seed stay
	// comparable).
	var orchKillAt []sim.Time // pending deadlines, ascending
	span := opts.KillEnd - opts.KillStart
	for i := 0; i < opts.OrchKills; i++ {
		orchKillAt = append(orchKillAt, opts.KillStart+span*time.Duration(i+1)/time.Duration(opts.OrchKills+1))
	}
	if err := w.launch(v, apps.GrayScottWorkflowID); err != nil {
		return nil, err
	}

	// RunUntilWorkflowDone's short idle grace would read a crash-recovery
	// gap (which can span the whole settle window) as completion; under
	// chaos, completion means the simulation actually finished its steps
	// and every task wound down.
	err = w.drive(opts.Horizon, 5*time.Second, func() (bool, error) {
		// Orchestrator kill: at a tick boundary every process is parked, so
		// the snapshot is quiescent — except a mid-round arbiter (parked in a
		// settle or plan-cost sleep with un-serializable state on its stack).
		// Defer the kill to the next boundary in that case; the deadline
		// stays armed.
		if len(orchKillAt) > 0 && w.Sim.Now() >= orchKillAt[0] && !w.Orch.Arbiter.Busy() {
			orchKillAt = orchKillAt[1:]
			if err := w.RestartOrchestrator(); err != nil {
				return false, err
			}
			res.OrchKills++
		}
		gs := w.SV.Instance(apps.GrayScottWorkflowID, "GrayScott")
		if gs != nil && gs.State() == task.Completed && w.WorkflowDone(apps.GrayScottWorkflowID) {
			res.End = w.Sim.Now()
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if res.End == 0 {
		res.End = w.Sim.Now()
	}

	tr := w.Orch.Trace
	res.Events = w.campaign.Events()
	res.InjectedCarves = faults.Injected()
	res.Rounds = tr.Counter("arbiter.rounds")
	res.FailedRounds = tr.Counter("arbiter.failed_rounds")
	res.Retries = tr.Counter("actuate.retries")
	res.RecoveredOps = tr.Counter("actuate.recovered_ops")
	res.RequeuedTasks = tr.Counter("arbiter.requeued_tasks")
	res.Leaked = LeakedOwners(w)
	if gs := w.SV.Instance(apps.GrayScottWorkflowID, "GrayScott"); gs != nil {
		res.GSState = gs.State().String()
		res.GSIncarnation = gs.Incarnation
	}
	res.Converged = res.GSState == "Completed" &&
		w.WorkflowDone(apps.GrayScottWorkflowID) && len(res.Leaked) == 0
	return res, nil
}

// LeakedOwners returns resource-manager owners whose task is not running —
// assignments that outlived their instance. A converged run has none.
func LeakedOwners(w *World) []string {
	var out []string
	for _, owner := range w.RM.Owners() {
		wf, task, ok := strings.Cut(owner, "/")
		if !ok || !w.SV.TaskRunning(wf, task) {
			out = append(out, owner)
		}
	}
	return out
}

// spliceRecovery inserts a STATUS sensor, monitors, and restart policies
// into a generated Gray-Scott orchestration document, giving the chaos
// scenarios a failure-recovery path (tasks killed by node death exit 137
// and trip RESTART_ON_FAILURE).
func spliceRecovery(xml string) string {
	xml = replaceOnce(xml, "</sensors>", `  <sensor id="STATUS" type="ERRORSTATUS">
        <group-by><group granularity="task" reduction-operation="FIRST"/></group-by>
      </sensor>
    </sensors>`)
	monitors := ""
	applies := ""
	for _, name := range []string{"GrayScott", "Isosurface", "Rendering", "FFT", "PDF_Calc"} {
		monitors += `
      <monitor-task name="` + name + `" workflowId="GS-WORKFLOW">
        <use-sensor sensor-id="STATUS" info="exitcode"/>
      </monitor-task>`
		applies += `
      <apply-policy policyId="RESTART_ON_FAILURE" assess-task="` + name + `">
        <act-on-tasks>` + name + `</act-on-tasks>
      </apply-policy>`
	}
	xml = replaceOnce(xml, "</monitor-tasks>", monitors+"\n    </monitor-tasks>")
	xml = replaceOnce(xml, "</policies>", `  <policy id="RESTART_ON_FAILURE">
        <eval operation="GT" threshold="128"/>
        <sensors-to-use><use-sensor id="STATUS" granularity="task"/></sensors-to-use>
        <action>RESTART</action>
        <frequency seconds="5"/>
      </policy>
    </policies>`)
	xml = replaceOnce(xml, "</apply-on>", applies+"\n    </apply-on>")
	return xml
}

func replaceOnce(s, old, new string) string {
	i := strings.Index(s, old)
	if i < 0 {
		panic("splice target not found: " + old)
	}
	return s[:i] + new + s[i+len(old):]
}
