package exp

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core"
	"dyflow/internal/core/arbiter"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// The scale world: N copies of the quickstart's coupled pair — a
// simulation streaming to an under-provisioned analysis — in one workflow,
// each analysis with its own PACE sensor and its own INC_ON_PACE policy
// binding. Pairs share nothing but the workflow, its orchestrator and the
// node pool (two nodes per pair), so whatever DYFLOW costs beyond N times
// one pair is the orchestration's own slope. It is a benchmark world, not
// a job scenario.
const scaleWorkflowID = "SCALE"

// scaleParams draws one scale world, the way a mock-flow generator draws
// small, large and high-concurrency flows from a few counts.
type scaleParams struct {
	Pairs int // simulation/analysis pairs
	Steps int // simulation steps per pair
}

// scaleXML is the orchestration document of a world of n pairs.
func scaleXML(n int) string {
	var sensors, targets, policies, bindings, prios strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sensors, `
      <sensor id="PACE%[1]d" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>`, i)
		fmt.Fprintf(&targets, `
      <monitor-task name="Analysis%[1]d" workflowId="SCALE" info-source="tau.Analysis%[1]d">
        <use-sensor sensor-id="PACE%[1]d" info="looptime"/>
      </monitor-task>`, i)
		fmt.Fprintf(&policies, `
      <policy id="INC_ON_PACE%[1]d">
        <eval operation="GT" threshold="10"/>
        <sensors-to-use><use-sensor id="PACE%[1]d" granularity="task"/></sensors-to-use>
        <action>ADDCPU</action>
        <history window="5" operation="AVG"/>
        <frequency seconds="5"/>
      </policy>`, i)
		fmt.Fprintf(&bindings, `
      <apply-policy policyId="INC_ON_PACE%[1]d" assess-task="Analysis%[1]d">
        <act-on-tasks>Analysis%[1]d</act-on-tasks>
        <action-params><param key="adjust-by" value="6"/></action-params>
      </apply-policy>`, i)
		fmt.Fprintf(&prios, `
          <task-priority name="Simulation%[1]d" priority="0"/>
          <task-priority name="Analysis%[1]d" priority="1"/>`, i)
	}
	return fmt.Sprintf(`
<dyflow>
  <monitor>
    <sensors>%s
    </sensors>
    <monitor-tasks>%s
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>%s
    </policies>
    <apply-on workflowId="SCALE">%s
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="SCALE">
        <task-priorities>%s
        </task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`, sensors.String(), targets.String(), policies.String(), bindings.String(), prios.String())
}

// runScaleWorld builds the scale world on Summit, runs it until every pair
// is done, and returns it; the caller closes it.
func runScaleWorld(p scaleParams, seed int64) (*World, error) {
	w, err := NewWorld(seed, apps.Summit, 2*p.Pairs)
	if err != nil {
		return nil, err
	}
	wf := &wms.WorkflowSpec{ID: scaleWorkflowID}
	for i := 0; i < p.Pairs; i++ {
		out := fmt.Sprintf("scale%d.out", i)
		wf.Tasks = append(wf.Tasks,
			wms.TaskConfig{
				Spec: task.Spec{
					Name: fmt.Sprintf("Simulation%d", i), Workflow: scaleWorkflowID,
					Cost:       task.Cost{Work: 10 * time.Second},
					TotalSteps: p.Steps,
					ProducesTo: out,
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			wms.TaskConfig{
				Spec: task.Spec{
					Name: fmt.Sprintf("Analysis%d", i), Workflow: scaleWorkflowID,
					Cost:         task.Cost{Work: 40 * time.Second},
					ConsumesFrom: out, ConsumeBuf: 1,
					Profile: true,
				},
				Procs: 2, ProcsPerNode: 1, AutoStart: true,
			})
	}
	if err := w.SV.Compose(wf); err != nil {
		w.Close()
		return nil, err
	}
	opts := core.Options{Arbiter: arbiter.Config{
		WarmupDelay:  time.Minute,
		SettleDelay:  time.Minute,
		PlanCost:     100 * time.Millisecond,
		GatherWindow: 5 * time.Second,
	}}
	if err := w.StartOrchestration(scaleXML(p.Pairs), opts); err != nil {
		w.Close()
		return nil, err
	}
	w.Launch(scaleWorkflowID)
	if _, err := w.RunUntilWorkflowDone(scaleWorkflowID, 8*time.Hour); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// TestScaleWorldGrowsEveryAnalysis: every pair of a small scale world
// completes and has its analysis grown by its own policy, so the curve
// measures a world that adapts, not one that idles.
func TestScaleWorldGrowsEveryAnalysis(t *testing.T) {
	p := scaleParams{Pairs: 4, Steps: 60}
	w, err := runScaleWorld(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < p.Pairs; i++ {
		sim := w.SV.Instance(scaleWorkflowID, fmt.Sprintf("Simulation%d", i))
		if sim == nil || sim.State() != task.Completed || sim.StepsDone() < p.Steps {
			t.Fatalf("Simulation%d did not complete its %d steps", i, p.Steps)
		}
		ana := w.SV.Instance(scaleWorkflowID, fmt.Sprintf("Analysis%d", i))
		if ana == nil || ana.Placement.Procs() <= 2 {
			t.Fatalf("Analysis%d was never grown", i)
		}
	}
	if rounds := w.Orch.Trace.Counter("arbiter.rounds"); rounds < 1 {
		t.Fatalf("arbiter.rounds = %d, want at least one executed round", rounds)
	}
}

// BenchmarkScaleWorld is the orchestration-cost curve (DESIGN.md §14,
// `make scale-curve`): the scale world at 1, 4, 16 and 64 pairs, a seed
// per run, each metric per simulated hour — CPU (wall time of the
// single-threaded run), bytes and allocations, arbitration rounds
// (executed plus empty) and kernel handoffs. After the four sizes it logs
// each metric's exponent k, fitted by least squares to metric ∝ pairs^k,
// over all sizes and over 16→64 alone: 1 is a cost that grows with the
// work, above 1 is orchestration that grows faster than what it steers.
func BenchmarkScaleWorld(b *testing.B) {
	sizes := []int{1, 4, 16, 64}
	names := []string{"cpu-ms/simh", "MB/simh", "allocs/simh", "rounds/simh", "handoffs/simh"}
	curve := map[string][]float64{}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			var before, after runtime.MemStats
			var simTime time.Duration
			var rounds, handoffs float64
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := runScaleWorld(scaleParams{Pairs: n, Steps: 240}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				simTime += time.Duration(w.Sim.Now())
				rounds += float64(w.Orch.Trace.Counter("arbiter.rounds") + w.Orch.Trace.Counter("arbiter.empty_rounds"))
				handoffs += float64(w.Sim.Handoffs())
				w.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			hours := simTime.Hours()
			vals := []float64{
				float64(b.Elapsed().Milliseconds()) / hours,
				float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / hours,
				float64(after.Mallocs-before.Mallocs) / hours,
				rounds / hours,
				handoffs / hours,
			}
			for j, name := range names {
				b.ReportMetric(vals[j], name)
			}
			curve[fmt.Sprint(n)] = vals
		})
	}
	var xs []float64
	ys := make([][]float64, len(names))
	for _, n := range sizes {
		vals, ok := curve[fmt.Sprint(n)]
		if !ok {
			continue // -bench selected only some sizes
		}
		xs = append(xs, float64(n))
		for j := range names {
			ys[j] = append(ys[j], vals[j])
		}
	}
	if len(xs) < 2 {
		return
	}
	logFit := func(xs []float64, ys [][]float64) {
		var fit strings.Builder
		for j, name := range names {
			fmt.Fprintf(&fit, " %s %.2f", name, exponent(xs, ys[j]))
		}
		b.Logf("exponents over pairs=%v:%s", xs, fit.String())
	}
	logFit(xs, ys)
	// The slope between the two largest sizes is where a super-linear
	// term shows first; DESIGN.md §14 and ROADMAP quote it.
	if lo, hi := curve["16"], curve["64"]; lo != nil && hi != nil && len(xs) > 2 {
		tail := make([][]float64, len(names))
		for j := range names {
			tail[j] = []float64{lo[j], hi[j]}
		}
		logFit([]float64{16, 64}, tail)
	}
}

// exponent is the least-squares slope of log y against log x.
func exponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	n := float64(len(xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
