// Command dyflow-exp regenerates the paper's evaluation artifacts — every
// table and figure of §4 — printing paper-vs-measured comparison tables
// and Gantt charts:
//
//	dyflow-exp [-machine summit|dt2] [-seed N] [-gantt] [-perfetto out.json] <experiment>...
//	dyflow-exp serve [-addr host:port]
//
// Experiments: table1 table2 table3 figure1 figure6 figure8 figure9
// figure11 cost trace overprov chaos all
//
// -perfetto writes a Chrome trace-event timeline of the (last) run with a
// recorded world — load it at ui.perfetto.dev. serve steps a chaos
// campaign while exposing /metrics (Prometheus text), /metrics.json, and
// /trace (Perfetto JSON) over HTTP.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dyflow"
	"dyflow/internal/apps"
	"dyflow/internal/cluster"
	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/stats"
)

var (
	machineFlag   = flag.String("machine", "summit", "summit or dt2")
	seedFlag      = flag.Int64("seed", 1, "simulation seed")
	ganttFlag     = flag.Bool("gantt", false, "print Gantt charts")
	widthFlag     = flag.Int("width", 100, "gantt chart width")
	traceJSONFlag = flag.String("trace-json", "", "write the trace experiment's report as JSON to this file")
	perfettoFlag  = flag.String("perfetto", "", "write a Chrome trace-event (Perfetto) timeline of the run to this file")
	addrFlag      = flag.String("addr", "127.0.0.1:8080", "serve: HTTP listen address")
	ckptDirFlag   = flag.String("ckpt-dir", "", "chaos: checkpoint store directory (rounds are journaled there; temp dir if empty and -orch-kills > 0)")
	orchKillsFlag = flag.Int("orch-kills", 0, "chaos: tear the orchestrator down this many times mid-campaign, restoring from checkpoint")
)

func machine() dyflow.Machine {
	if *machineFlag == "dt2" || *machineFlag == "deepthought2" {
		return dyflow.Deepthought2
	}
	return dyflow.Summit
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	if args[0] == "serve" {
		if err := serve(); err != nil {
			fatal(err)
		}
		return
	}
	runs := map[string]func() error{
		"table1":   table1,
		"table2":   table2,
		"table3":   table3,
		"figure1":  figure1,
		"figure6":  figure6,
		"figure8":  figure8,
		"figure9":  figure9,
		"figure11": figure11,
		"cost":     cost,
		"trace":    traceExp,
		"overprov": overprov,
		"sweep":    sweep,
		"chaos":    chaos,
	}
	order := []string{"table1", "figure6", "table2", "figure1", "figure8", "figure9", "table3", "figure11", "cost", "trace", "overprov"}
	for _, name := range args {
		if name == "all" {
			for _, n := range order {
				if err := runs[n](); err != nil {
					fatal(err)
				}
			}
			continue
		}
		fn, ok := runs[name]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		if err := fn(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dyflow-exp:", err)
	os.Exit(1)
}

// exportPerfetto writes the run's timeline when -perfetto is set. chaos is
// nil for fault-free experiments. Experiments call it after their run, so
// with several experiments in one invocation the last one wins.
func exportPerfetto(w *exp.World, chaos []cluster.CampaignEvent) error {
	if *perfettoFlag == "" || w == nil {
		return nil
	}
	f, err := os.Create(*perfettoFlag)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := exp.WritePerfetto(f, w, chaos); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n\n", *perfettoFlag)
	return nil
}

// serve steps a chaos campaign (seed/machine from the shared flags) while
// exposing the unified observability surface over HTTP: /metrics is the
// Prometheus text exposition, /metrics.json the JSON snapshot, /trace the
// Perfetto timeline of the run so far. The simulation is single-threaded,
// so one mutex serializes sim stepping against handler reads. -addr host:0
// binds a free port (the bound address is printed); SIGINT/SIGTERM shut
// down gracefully with in-flight requests drained.
func serve() error {
	cr, err := exp.NewChaosRun(*seedFlag, machine(), dyflow.DefaultChaosOptions())
	if err != nil {
		return err
	}
	var mu sync.Mutex // held around every step and every handler
	locked := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	// Closed once the drain is over, and under the lock so that it cannot
	// land inside a step of the loop below.
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		cr.W.Close()
	}()
	mux := http.NewServeMux()
	mux.Handle("/metrics", locked(obs.MetricsHandler(cr.W.Metrics)))
	mux.Handle("/metrics.json", locked(obs.JSONHandler(cr.W.Metrics)))
	mux.Handle("/trace", locked(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := exp.WritePerfetto(w, cr.W, cr.Events()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		// ~5 simulated seconds per 50ms of wall clock, so a scraper watches
		// the campaign unfold instead of finding it already over.
		for ctx.Err() == nil {
			mu.Lock()
			done, err := cr.Step(5 * time.Second)
			if done && err == nil {
				cr.Result().Write(os.Stdout)
			}
			mu.Unlock()
			if err != nil {
				fmt.Fprintln(os.Stderr, "dyflow-exp: serve:", err)
			}
			if done || err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "dyflow-exp: serve:", err)
		}
	}()
	fmt.Printf("serving /metrics /metrics.json /trace on http://%s (chaos campaign, seed %d, %v)\n",
		ln.Addr(), *seedFlag, machine())
	<-ctx.Done()
	stop()
	fmt.Println("dyflow-exp: serve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}

func table1() error {
	cfg := apps.XGCConfigFor(machine())
	fmt.Printf("== Table 1 — XGC1/XGCa run configuration (%v) ==\n", machine())
	fmt.Printf("  processes             %d (%d per node, %d cores/process)\n", cfg.Procs, cfg.ProcsPerNode, cfg.CoresPerProc)
	fmt.Printf("  threads per process   %d\n", cfg.Threads)
	fmt.Printf("  timesteps per run     %d\n", cfg.StepsPerRun)
	fmt.Printf("  particles per process %d\n", cfg.Particles)
	fmt.Printf("  allocation            %d nodes\n\n", cfg.Nodes)
	return nil
}

func table2() error {
	cfg := apps.GrayScottConfigFor(machine())
	fmt.Printf("== Table 2 — Gray-Scott initial configuration (%v) ==\n", machine())
	row := func(name string, tc apps.GSTaskConfig) {
		fmt.Printf("  %-11s %4d processes (%d per node)\n", name, tc.Procs, tc.ProcsPerNode)
	}
	row("Gray-Scott", cfg.GrayScott)
	row("Isosurface", cfg.Isosurface)
	row("Rendering", cfg.Rendering)
	row("FFT", cfg.FFT)
	row("PDF_Calc", cfg.PDFCalc)
	fmt.Printf("  total steps %d, time limit %v, allocation %d nodes\n\n", cfg.TotalSteps, cfg.TimeLimit, cfg.Nodes)
	return nil
}

func table3() error {
	cfg := apps.LAMMPSConfigFor(machine())
	fmt.Printf("== Table 3 — LAMMPS initial configuration (%v) ==\n", machine())
	row := func(name string, tc apps.LAMMPSTaskConfig) {
		fmt.Printf("  %-9s %4d processes (%d per node)\n", name, tc.Procs, tc.ProcsPerNode)
	}
	row("LAMMPS", cfg.LAMMPS)
	row("CNA_Calc", cfg.CNACalc)
	row("RDF_Calc", cfg.RDFCalc)
	row("CS_Calc", cfg.CSCalc)
	fmt.Printf("  total atoms %d, sim steps %d, analysis steps %d\n", cfg.TotalAtoms, cfg.TotalSteps, cfg.AnalysisSteps)
	fmt.Printf("  allocation %d nodes (%d spare)\n\n", cfg.Nodes, cfg.SpareNodes)
	return nil
}

func figure6() error {
	res, err := dyflow.RunXGC(*seedFlag, machine())
	if err != nil {
		return err
	}
	defer res.W.Close()
	if *ganttFlag {
		res.W.Rec.Gantt(os.Stdout, *widthFlag)
		fmt.Println()
	}
	base, err := dyflow.RunXGCBaseline(*seedFlag, machine(), res.FinalStep)
	if err != nil {
		return err
	}
	dyflow.XGCReport(res, time.Duration(base)).Write(os.Stdout)
	return exportPerfetto(res.W, nil)
}

// runGS runs Gray-Scott with and without DYFLOW. The baseline's world is
// closed here — the reports read only its result fields — and the
// orchestrated one is the caller's to close after its last read.
func runGS() (*exp.GSResult, *exp.GSResult, error) {
	res, err := dyflow.RunGrayScott(*seedFlag, machine(), true)
	if err != nil {
		return nil, nil, err
	}
	base, err := dyflow.RunGrayScott(*seedFlag, machine(), false)
	if err != nil {
		res.W.Close()
		return nil, nil, err
	}
	base.W.Close()
	return res, base, nil
}

func figure1() error {
	res, _, err := runGS()
	if err != nil {
		return err
	}
	defer res.W.Close()
	dyflow.Figure1Report(res).Write(os.Stdout)
	return nil
}

func figure8() error {
	res, base, err := runGS()
	if err != nil {
		return err
	}
	defer res.W.Close()
	if *ganttFlag {
		res.W.Rec.Gantt(os.Stdout, *widthFlag)
		fmt.Println()
		res.W.Rec.PlanSummary(os.Stdout)
		fmt.Println()
	}
	dyflow.GrayScottReport(res, base).Write(os.Stdout)
	return exportPerfetto(res.W, nil)
}

func figure9() error {
	res, _, err := runGS()
	if err != nil {
		return err
	}
	defer res.W.Close()
	fmt.Printf("== Figure 9 — average time per timestep received by Decision (%v) ==\n", machine())
	var inc, dec float64 = 36, 24
	if machine() == dyflow.Deepthought2 {
		inc, dec = 42, 28
	}
	for _, name := range []string{"Isosurface", "Rendering", "FFT", "PDF_Calc"} {
		series := res.W.Rec.Series("GS-WORKFLOW", name, "PACE")
		exp.PlotSeries(os.Stdout, name+" (dashed lines: desired interval)", series, *widthFlag, 12, inc, dec)
		fmt.Println()
	}
	return nil
}

func figure11() error {
	res, err := dyflow.RunLAMMPS(*seedFlag, machine(), true)
	if err != nil {
		return err
	}
	defer res.W.Close()
	if *ganttFlag {
		res.W.Rec.Gantt(os.Stdout, *widthFlag)
		fmt.Println()
	}
	dyflow.LAMMPSReport(res).Write(os.Stdout)
	return exportPerfetto(res.W, nil)
}

func cost() error {
	res, err := dyflow.RunCostAnalysis(*seedFlag, machine())
	if err != nil {
		return err
	}
	dyflow.CostReport(res).Write(os.Stdout)
	return nil
}

// traceExp renders the flight recorder's per-stage latency decomposition of
// a Gray-Scott run — the drill-down behind the §4.6 cost analysis — and
// optionally exports it as JSON (-trace-json).
func traceExp() error {
	res, err := dyflow.RunGrayScott(*seedFlag, machine(), true)
	if err != nil {
		return err
	}
	defer res.W.Close()
	rep := res.W.Orch.Trace.Report()
	fmt.Printf("== Flight recorder — Gray-Scott per-stage latency (%v, seed %d) ==\n", machine(), *seedFlag)
	rep.Write(os.Stdout)
	fmt.Println()
	if *traceJSONFlag != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceJSONFlag, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n\n", *traceJSONFlag)
	}
	return exportPerfetto(res.W, nil)
}

func overprov() error {
	res, err := dyflow.RunGrayScottOverProvisioned(*seedFlag, machine())
	if err != nil {
		return err
	}
	defer res.W.Close()
	if *ganttFlag {
		res.W.Rec.Gantt(os.Stdout, *widthFlag)
		fmt.Println()
	}
	dyflow.OverProvisionReport(res).Write(os.Stdout)
	return exportPerfetto(res.W, nil)
}

// chaos runs the seeded fault-injection campaign: Gray-Scott with restart
// policies under node kills/heals and flaky carves, reporting the recovery
// counters and whether the workflow still converged (DESIGN.md §10).
func chaos() error {
	opts := dyflow.DefaultChaosOptions()
	opts.CkptDir = *ckptDirFlag
	opts.OrchKills = *orchKillsFlag
	if opts.OrchKills > 0 && opts.CkptDir == "" {
		dir, err := os.MkdirTemp("", "dyflow-ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.CkptDir = dir
	}
	res, err := dyflow.RunChaos(*seedFlag, machine(), opts)
	if err != nil {
		return err
	}
	defer res.W.Close()
	fmt.Printf("== Chaos — fault-injection campaign (%v, seed %d) ==\n", machine(), *seedFlag)
	res.Write(os.Stdout)
	fmt.Println()
	if !res.Converged {
		return fmt.Errorf("chaos campaign did not converge (seed %d)", *seedFlag)
	}
	return exportPerfetto(res.W, res.Events)
}

// sweep runs the three headline experiments across many seeds in parallel
// and prints mean ± stddev of the reproduced quantities, demonstrating the
// shapes are not single-seed accidents.
func sweep() error {
	const n = 10
	seeds := exp.Seeds(1, n)
	fmt.Printf("== Seed sweep (%d seeds, %v) ==\n", n, machine())

	type gsOut struct {
		plans            int
		makespan, before float64
		after            float64
	}
	gs := exp.Sweep(seeds, 0, func(seed int64) (gsOut, error) {
		res, err := exp.RunGrayScott(seed, machine(), true)
		if err != nil {
			return gsOut{}, err
		}
		defer res.W.Close()
		return gsOut{
			plans:    len(res.W.Rec.Plans),
			makespan: res.Makespan.Seconds(),
			before:   res.PaceBefore,
			after:    res.PaceAfter,
		}, nil
	})
	var mk, pb, pa stats.Welford
	planCounts := map[int]int{}
	for _, r := range gs {
		if r.Err != nil {
			return r.Err
		}
		planCounts[r.Out.plans]++
		mk.Add(r.Out.makespan)
		pb.Add(r.Out.before)
		pa.Add(r.Out.after)
	}
	fmt.Printf("  Gray-Scott: adaptations %v, makespan %.0f±%.0f s, pace %.1f -> %.1f s\n",
		planCounts, mk.Mean(), mk.StdDev(), pb.Mean(), pa.Mean())

	type mdOut struct {
		resume   int
		response float64
	}
	md := exp.Sweep(seeds, 0, func(seed int64) (mdOut, error) {
		res, err := exp.RunLAMMPS(seed, machine(), true)
		if err != nil {
			return mdOut{}, err
		}
		defer res.W.Close()
		return mdOut{resume: res.ResumeStep, response: res.RecoveryResponse.Seconds()}, nil
	})
	var resp stats.Welford
	resumes := map[int]int{}
	for _, r := range md {
		if r.Err != nil {
			return r.Err
		}
		resumes[r.Out.resume]++
		resp.Add(r.Out.response)
	}
	fmt.Printf("  LAMMPS: resume steps %v, recovery response %.2f±%.2f s\n",
		resumes, resp.Mean(), resp.StdDev())

	xgcRes := exp.Sweep(seeds[:4], 0, func(seed int64) (int, error) {
		res, err := exp.RunXGC(seed, machine())
		if err != nil {
			return 0, err
		}
		defer res.W.Close()
		return res.FinalStep, nil
	})
	finals := map[int]int{}
	for _, r := range xgcRes {
		if r.Err != nil {
			return r.Err
		}
		finals[r.Out]++
	}
	fmt.Printf("  XGC: final steps %v (4 seeds)\n\n", finals)
	return nil
}
