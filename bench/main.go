// Command bench is the campaign-service benchmark: it embeds the
// dyflow-serve coordinator in-process, drives it over loopback HTTP from
// closed-loop clients with a fixed, seed-derived job list, checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is the machine-readable result. See README.md.
//
//	go -C bench run . -workload svc-light -seed 1            end-to-end metrics
//	go -C bench run . -workload svc-light -seed 1 -trace 1   per-layer metrics
//	go -C bench run . -selfcheck                             repeatability gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name      = flag.String("workload", "", "svc-light | des-heavy | fleet-durable | history-query")
		seed      = flag.Int64("seed", 1, "derives the job list; the same seed gives the same jobs")
		seconds   = flag.Int("seconds", nominalSeconds, "scales the fixed per-round job count from the nominal run length")
		trace     = flag.Int("trace", 0, "1: the traced pass (per-layer metrics) instead of the end-to-end pass")
		out       = flag.String("out", filepath.Join("bench", "out"), "directory for result files and scratch state")
		selfcheck = flag.Bool("selfcheck", false, "run all workloads twice and compare against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(*out, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil {
		err = run(w.scaled(*seconds), *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes one pass in scratch space under out, writes
// <out>/<workload>[.layers].json, prints the metric table and ends with
// the one-line result. A failed output check makes it return an error
// after printing, so the exit code says so too.
func run(w workload, seed int64, seconds int, traced bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "tmp-"+w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var res *result
	file := w.Name + ".json"
	if traced {
		file = w.Name + ".layers.json"
		res, err = runTraced(w, seed, tmp, filepath.Join(out, w.Name+".trace.json"))
	} else {
		res, err = runEndToEnd(w, seed, tmp)
	}
	if err != nil {
		return err
	}
	res.Seconds, res.Trace = seconds, traced

	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, file), append(full, '\n'), 0o644); err != nil {
		return err
	}
	for _, m := range res.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Printf("%-34s %16.9g %-7s %s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their checks", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

// line is the result in the shape the driver reads from the last line.
func (r *result) line() map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = mv{m.Value, m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}
