// Quickstart: a two-task in situ workflow — a simulation streaming to an
// under-provisioned analysis — orchestrated by a single pace policy that
// grows the analysis when its average time per timestep exceeds the
// threshold. Run it and watch DYFLOW restart the analysis with more
// processes:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"dyflow"
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

func main() {
	// A 2-node Deepthought2 slice (40 cores).
	sys, err := dyflow.NewSystem(42, dyflow.Deepthought2, 2)
	if err != nil {
		panic(err)
	}
	defer sys.Close()

	// Simulation: 10 processes, ~1 s per step, streaming every step.
	// Analysis: 2 processes, ~20 s per step — the coupling buffer throttles
	// the simulation until DYFLOW grows the analysis.
	err = sys.Compose(&dyflow.WorkflowSpec{
		ID: "DEMO",
		Tasks: []dyflow.TaskConfig{
			{
				Spec: dyflow.TaskSpec{
					Name: "Simulation", Workflow: "DEMO",
					Cost:       dyflow.Cost{Work: 10 * time.Second},
					TotalSteps: 600,
					ProducesTo: "demo.out",
				},
				Procs: 10, ProcsPerNode: 5, AutoStart: true,
			},
			{
				Spec: dyflow.TaskSpec{
					Name: "Analysis", Workflow: "DEMO",
					Cost:         dyflow.Cost{Work: 40 * time.Second},
					ConsumesFrom: "demo.out", ConsumeBuf: 1,
					Profile: true,
				},
				Procs: 2, ProcsPerNode: 1, AutoStart: true,
			},
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
	sys.Launch("DEMO")
	if _, err := sys.RunUntilWorkflowDone("DEMO", time.Hour); err != nil {
		panic(err)
	}

	fmt.Println("DYFLOW quickstart — in situ pace adaptation")
	fmt.Println()
	sys.WriteGantt(os.Stdout, 96)
	fmt.Println()
	sys.WritePlanSummary(os.Stdout)
	fmt.Printf("\nAnalysis now runs with %d processes (started with 2)\n",
		sys.TaskProcs("DEMO", "Analysis"))
}
