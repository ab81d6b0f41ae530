// Command dyflow runs a user-described simulated workflow deployment under
// a DYFLOW orchestration specification:
//
//	dyflow -config system.json -spec orchestration.xml [-horizon 1h]
//	       [-trace trace.json] [-gantt-width 100]
//
// The JSON config composes the cluster, workflows, scripts, and failure
// injections (see dyflow.SystemConfig); the XML document programs the
// Monitor/Decision/Arbitration stages exactly as in the paper's Figures
// 3-5, 7, and 10.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dyflow"
)

func main() {
	var (
		configPath = flag.String("config", "", "system JSON config (required)")
		specPath   = flag.String("spec", "", "DYFLOW orchestration XML (optional: omit for a baseline run)")
		horizon    = flag.Duration("horizon", time.Hour, "virtual-time horizon")
		tracePath  = flag.String("trace", "", "write the run trace JSON here")
		ganttWidth = flag.Int("gantt-width", 100, "gantt chart width")
		warmup     = flag.Duration("warmup", 2*time.Minute, "arbitration warm-up delay")
		settle     = flag.Duration("settle", 2*time.Minute, "arbitration settle delay")
	)
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "dyflow: -config is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := dyflow.LoadSystemConfig(*configPath)
	if err != nil {
		fatal(err)
	}
	sys, err := cfg.Build()
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	if *specPath != "" {
		opts := dyflow.Options{Arbiter: dyflow.ArbiterConfig{
			WarmupDelay:  *warmup,
			SettleDelay:  *settle,
			PlanCost:     100 * time.Millisecond,
			GatherWindow: 5 * time.Second,
		}}
		if err := sys.StartOrchestrationFile(*specPath, opts); err != nil {
			fatal(err)
		}
	}
	sys.Launch(cfg.WorkflowIDs()...)

	for _, wf := range cfg.WorkflowIDs() {
		if _, err := sys.RunUntilWorkflowDone(wf, *horizon); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("run finished at virtual %v\n\n", sys.Now().Round(time.Second))
	sys.WriteGantt(os.Stdout, *ganttWidth)
	fmt.Println()
	sys.WritePlanSummary(os.Stdout)

	if *tracePath != "" {
		if err := sys.DumpTrace().WriteFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s\n", *tracePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dyflow:", err)
	os.Exit(1)
}
