// Gray-Scott under-provisioning (paper §4.4, Figures 8 and 9): the
// reaction-diffusion simulation is tightly coupled to four analyses whose
// initial sizes can't sustain the desired pace; DYFLOW's INC_ON_PACE policy
// grows Isosurface twice, taking cores from PDF_Calc and then FFT, with
// Rendering restarted alongside due to its tight dependency.
//
//	go run ./examples/grayscott [-machine summit|dt2]
package main

import (
	"flag"
	"fmt"
	"os"

	"dyflow"
	"dyflow/internal/exp"
)

func main() {
	machine := flag.String("machine", "summit", "summit or dt2")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	m := dyflow.Summit
	if *machine == "dt2" {
		m = dyflow.Deepthought2
	}

	fmt.Printf("Gray-Scott under-provisioning on %v (seed %d)\n\n", m, *seed)
	res, err := dyflow.RunGrayScott(*seed, m, true)
	if err != nil {
		panic(err)
	}
	defer res.W.Close()
	res.W.Rec.Gantt(os.Stdout, 100)
	fmt.Println()
	res.W.Rec.PlanSummary(os.Stdout)
	fmt.Println()

	// The Figure 9 series: average time per timestep as Decision received
	// it — note the reset gap and the drop after each restart.
	inc, dec := 36.0, 24.0
	if m == dyflow.Deepthought2 {
		inc, dec = 42.0, 28.0
	}
	series := res.W.Rec.Series("GS-WORKFLOW", "Isosurface", "PACE")
	exp.PlotSeries(os.Stdout, "Isosurface avg time/step (Figure 9; dashed: desired interval)",
		series, 100, 12, inc, dec)
	fmt.Println()

	baseline, err := dyflow.RunGrayScott(*seed, m, false)
	if err != nil {
		panic(err)
	}
	defer baseline.W.Close()
	dyflow.GrayScottReport(res, baseline).Write(os.Stdout)
	dyflow.Figure1Report(res).Write(os.Stdout)
}
