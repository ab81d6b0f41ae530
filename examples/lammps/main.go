// LAMMPS failure resilience (paper §4.5, Figure 11): a molecular-dynamics
// simulation tightly coupled to three analyses loses a node 10 minutes into
// the run, failing the whole workflow; DYFLOW's RESTART_ON_FAILURE policy
// observes the signal exit codes and restarts every task on healthy nodes,
// with LAMMPS resuming from its last checkpoint (step 412).
//
//	go run ./examples/lammps [-machine summit|dt2]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dyflow"
)

func main() {
	machine := flag.String("machine", "summit", "summit or dt2")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	m := dyflow.Summit
	if *machine == "dt2" {
		m = dyflow.Deepthought2
	}

	fmt.Printf("LAMMPS failure resilience on %v (seed %d)\n\n", m, *seed)
	res, err := dyflow.RunLAMMPS(*seed, m, true)
	if err != nil {
		panic(err)
	}
	defer res.W.Close()
	res.W.Rec.Gantt(os.Stdout, 100)
	fmt.Println()
	res.W.Rec.PlanSummary(os.Stdout)

	fmt.Printf("\nNode %s failed at %v; recovery plan response %v; resumed from step %d\n\n",
		res.FailedNode, res.FailureAt, res.RecoveryResponse.Round(10*time.Millisecond), res.ResumeStep)

	dyflow.LAMMPSReport(res).Write(os.Stdout)

	fmt.Println("Baseline (no DYFLOW): the failed workflow stays down.")
	base, err := dyflow.RunLAMMPS(*seed, m, false)
	if err != nil {
		panic(err)
	}
	defer base.W.Close()
	fmt.Printf("  completed without orchestration: %v\n", base.Completed)
}
