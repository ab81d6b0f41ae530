package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory and
// its parents, so the check runs from the checkout root or from bench/.
func findBenchmarkFile() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent
			continue
		}
		return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
	}
}

// selfCheck is the repeatability gate: it runs every workload of
// BENCHMARK.json twice, each in a fresh process of this binary, and fails
// unless every end-to-end metric of the two sets agrees within the bound
// the file fixes for it.
func selfCheck(out string, seed int64) error {
	path, err := findBenchmarkFile()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := make([]map[string]map[string]float64, 2)
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, w := range bf.Workloads {
			fmt.Fprintf(os.Stderr, "selfcheck: set %d: %s\n", i+1, w.Name)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(bf.RunSeconds), "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var line struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s: result line: %w", w.Name, err)
			}
			sets[i][w.Name] = map[string]float64{}
			for name, m := range line.Metrics {
				sets[i][w.Name][name] = m.Value
			}
		}
	}
	bad := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.Name][m.Name], sets[1][w.Name][m.Name]
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if !(diff <= m.Bound) { // also catches a missing or zero metric (NaN, Inf)
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g  %6.2f%%  bound %5.1f%%  %s\n",
				w.Name, m.Name, a, b, diff*100, m.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree beyond their bound", bad)
	}
	return nil
}
