package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	printed := <-out
	if ferr != nil {
		t.Fatalf("%v\n%s", ferr, printed)
	}
	return printed
}

// setFlags points the shared flags at one run and restores them after the
// test.
func setFlags(t *testing.T, machine string, seed int64, orchKills int) {
	t.Helper()
	m, s, k := *machineFlag, *seedFlag, *orchKillsFlag
	t.Cleanup(func() { *machineFlag, *seedFlag, *orchKillsFlag = m, s, k })
	*machineFlag, *seedFlag, *orchKillsFlag = machine, seed, orchKills
}

// fencedAfter returns the body of the first fenced block in EXPERIMENTS.md
// that starts after marker.
func fencedAfter(t *testing.T, marker string) string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), marker)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q", marker)
	}
	_, rest, ok = strings.Cut(rest, "```\n")
	body, _, closed := strings.Cut(rest, "```\n")
	if !ok || !closed {
		t.Fatalf("EXPERIMENTS.md has no fenced block after %q", marker)
	}
	return body
}

// TestChaosOutputMatchesExperiments: `dyflow-exp -machine dt2 -seed 1
// chaos` prints EXPERIMENTS.md's fenced output byte for byte, and
// `dyflow-exp -orch-kills 2 chaos` prints every line the orchestrator-kill
// section quotes.
func TestChaosOutputMatchesExperiments(t *testing.T) {
	setFlags(t, "dt2", 1, 0)
	want := fencedAfter(t, "go run ./cmd/dyflow-exp -machine dt2 -seed 1 chaos\n```")
	if got := captureStdout(t, chaos); got != want+"\n" {
		t.Errorf("dt2 seed 1 chaos printed\n%s\nEXPERIMENTS.md says\n%s", got, want)
	}

	setFlags(t, "summit", 1, 2)
	got := captureStdout(t, chaos)
	lines := map[string]bool{}
	for _, line := range strings.Split(got, "\n") {
		lines[line] = true
	}
	quoted := fencedAfter(t, "go run ./cmd/dyflow-exp -orch-kills 2 chaos\n```")
	for _, line := range strings.Split(strings.TrimSuffix(quoted, "\n"), "\n") {
		if !lines[line] {
			t.Errorf("-orch-kills 2 chaos printed no line %q:\n%s", line, got)
		}
	}
}

// stageEvents sums every dyflow_stage_events_total series of a Prometheus
// text exposition.
func stageEvents(t *testing.T, exposition string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, "dyflow_stage_events_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("series line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestServeExposesLiveCampaign starts `dyflow-exp serve` on a free port and
// reads it while the campaign runs: the stage counters grow between two
// scrapes, /trace is a trace-event document that gains a kill/heal instant
// once the first node kill fires, and SIGINT shuts the server down cleanly.
func TestServeExposesLiveCampaign(t *testing.T) {
	setFlags(t, "summit", 1, 0)
	addr := *addrFlag
	t.Cleanup(func() { *addrFlag = addr })
	*addrFlag = "127.0.0.1:0"

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	served := make(chan error, 1)
	go func() { served <- serve() }()

	lines := bufio.NewScanner(r)
	if !lines.Scan() {
		t.Fatal("serve printed nothing")
	}
	first := lines.Text()
	go func() { // keep the pipe drained
		for lines.Scan() {
		}
	}()
	_, rest, ok := strings.Cut(first, "http://")
	base, _, _ := strings.Cut(rest, " ")
	if !ok || base == "" {
		t.Fatalf("serve's first line names no address: %q", first)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	before := stageEvents(t, get("/metrics"))
	time.Sleep(400 * time.Millisecond)
	if after := stageEvents(t, get("/metrics")); after <= before {
		t.Errorf("dyflow_stage_events_total went %v -> %v across 400ms of a live campaign", before, after)
	}

	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for instants := 0; instants == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no kill/heal instant on /trace after 30s")
		}
		body := get("/trace")
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/trace is not JSON: %v\n%.300s", err, body)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Cat == "chaos" && ev.Ph == "i" {
				instants++
			}
		}
		time.Sleep(100 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return after SIGINT")
	}
	w.Close()
	if !strings.Contains(first, "chaos campaign") {
		t.Errorf("serve's banner names no chaos campaign: %q", first)
	}
}
