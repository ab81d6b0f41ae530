// XGC1-XGCa science-driven alternation (paper §4.3, Figure 6): the two
// fusion codes alternate 100-step runs sharing a global step counter;
// DYFLOW starts whichever code is behind the workflow front, switches XGCa
// out when the proxy error condition hits global step 374, and stops the
// experiment past step 500. Compare with the XGC1-only baseline (~25%
// slower).
//
//	go run ./examples/xgc [-machine summit|dt2]
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

	fmt.Printf("XGC1-XGCa alternation on %v (seed %d)\n\n", m, *seed)
	res, err := dyflow.RunXGC(*seed, m)
	if err != nil {
		panic(err)
	}
	defer res.W.Close()
	res.W.Rec.Gantt(os.Stdout, 100)
	fmt.Println()

	fmt.Println("Dynamic events:")
	for _, ev := range res.Events {
		fmt.Printf("  %-12s at %-10v response %v\n",
			ev.Kind, time.Duration(ev.At).Round(time.Second), ev.Response.Round(10*time.Millisecond))
	}
	fmt.Printf("\nFinal global step: %d (XGCa started %d times)\n\n", res.FinalStep, res.XGCaStarts)

	base, err := dyflow.RunXGCBaseline(*seed, m, res.FinalStep)
	if err != nil {
		panic(err)
	}
	dyflow.XGCReport(res, time.Duration(base)).Write(os.Stdout)
}
