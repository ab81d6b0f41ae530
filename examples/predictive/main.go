// Predictive orchestration (the paper's §6 future-work direction): instead
// of reacting once a metric crosses a hard ceiling, a policy can fire on
// the metric's TREND. Here a simulation's time per timestep creeps upward
// (a leak-like degradation); the SLOPE pre-analysis fits a line through the
// history window and RESTARTs the task while its pace is still acceptable,
// long before the deadline-threatening ceiling.
//
//	go run ./examples/predictive
package main

import (
	"fmt"
	"os"
	"time"

	"dyflow"
	"dyflow/internal/exp"
)

const orchestrationXML = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="Sim" workflowId="PRED" info-source="tau.Sim">
        <use-sensor sensor-id="PACE" info="looptime"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <!-- Fire when pace grows faster than 0.2 s per step, regardless of
           its absolute value: the trend predicts trouble. -->
      <policy id="DEGRADATION_GUARD">
        <eval operation="GT" threshold="0.2"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action>RESTART</action>
        <history window="8" operation="SLOPE"/>
        <frequency seconds="5"/>
      </policy>
    </policies>
    <apply-on workflowId="PRED">
      <apply-policy policyId="DEGRADATION_GUARD" assess-task="Sim">
        <act-on-tasks>Sim</act-on-tasks>
      </apply-policy>
    </apply-on>
  </decision>
  <arbitration>
    <rules>
      <rule-for workflowId="PRED">
        <task-priorities><task-priority name="Sim" priority="0"/></task-priorities>
      </rule-for>
    </rules>
  </arbitration>
</dyflow>`

func main() {
	sys, err := dyflow.NewSystem(11, dyflow.Deepthought2, 2)
	if err != nil {
		panic(err)
	}
	defer sys.Close()
	// The simulation degrades: each step costs 6% more than the last
	// (fragmentation, leak, fill-up...). A restart resumes from the last
	// checkpoint and resets the degradation — the closure detects the
	// step-counter rewind that a checkpoint resume produces.
	last, base := -1, 0
	spec := dyflow.TaskSpec{
		Name: "Sim", Workflow: "PRED",
		Cost: dyflow.Cost{
			Work: 50 * time.Second, // 5 s/step at 10 procs when healthy
			Scale: func(step int) float64 {
				if step <= last {
					base = step // rewind: a fresh incarnation resumed here
				}
				last = step
				return 1 + 0.06*float64(step-base)
			},
		},
		TotalSteps:           120,
		CheckpointEvery:      5,
		CheckpointKey:        "ckpt/pred",
		ResumeFromCheckpoint: true,
		Profile:              true,
	}
	err = sys.Compose(&dyflow.WorkflowSpec{
		ID: "PRED",
		Tasks: []dyflow.TaskConfig{
			{Spec: spec, Procs: 10, ProcsPerNode: 5, AutoStart: true},
		},
	})
	if err != nil {
		panic(err)
	}
	opts := dyflow.Options{Arbiter: dyflow.ArbiterConfig{
		WarmupDelay:  time.Minute,
		SettleDelay:  time.Minute,
		PlanCost:     100 * time.Millisecond,
		GatherWindow: 5 * time.Second,
	}}
	if err := sys.StartOrchestration(orchestrationXML, opts); err != nil {
		panic(err)
	}
	sys.Launch("PRED")
	if _, err := sys.RunUntilWorkflowDone("PRED", 2*time.Hour); err != nil {
		panic(err)
	}

	fmt.Println("Predictive restart on pace degradation (SLOPE pre-analysis)")
	fmt.Println()
	sys.WriteGantt(os.Stdout, 96)
	fmt.Println()
	sys.WritePlanSummary(os.Stdout)
	fmt.Println()
	series := sys.World().Rec.Series("PRED", "Sim", "PACE")
	exp.PlotSeries(os.Stdout, "Sim avg time/step — each sawtooth reset is a predictive restart",
		series, 96, 10)
}
