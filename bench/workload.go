package main

import (
	"fmt"
	"math/rand"

	"dyflow/internal/exp"
)

// nominalSeconds is the --seconds value the frozen per-round counts below
// were sized for (BENCHMARK.json's run_seconds). Another --seconds scales
// PerRound in proportion, so the work stays a fixed list per (seed,
// seconds) pair and never becomes "whatever fitted in the time".
const nominalSeconds = 15

// A workload is one fixed traffic mix; BENCHMARK.json and README.md say why
// each exists. Counts are frozen: change them and every committed baseline
// is void.
type workload struct {
	Name     string
	Scenario string
	Durable  bool // CkptDir set: WAL + snapshot + runs/ + blobs/ on disk
	Fleet    bool // Workers:-1 and two in-process fleet.Workers over loopback HTTP
	Workers  int  // local pool size when !Fleet
	Clients  int  // closed-loop client goroutines, never more than nproc = 2
	Tenants  int

	SetupRepeats int // set-ups per end-to-end pass; setup_s is their median
	SetupRuns    int // client-driven runs that end each set-up (readiness)
	WarmRounds   int // discarded rounds' worth of runs before measuring
	Rounds       int // measured rounds
	PerRound     int // completions (runs, or script steps) per round at nominalSeconds

	// history-query only: Preload terminal runs are submitted in-process
	// before the server is closed and reopened, drawn from SeedSpace
	// distinct jobs so all but the first SeedSpace are cache hits; clients
	// then run the read script beside each cached submit.
	Preload   int
	SeedSpace int

	Samples int // jobs re-run directly for the digest check
}

var workloads = []workload{
	{
		Name:     "svc-light",
		Scenario: exp.ScenarioQuickstart, Workers: 2, Clients: 2, Tenants: 4,
		SetupRepeats: 5, SetupRuns: 100, WarmRounds: 2, Rounds: 9, PerRound: 350, Samples: 8,
	},
	{
		Name:     "des-heavy",
		Scenario: exp.ScenarioXGC, Workers: 1, Clients: 1, Tenants: 1,
		SetupRepeats: 3, SetupRuns: 1, WarmRounds: 1, Rounds: 11, PerRound: 1, Samples: 2,
	},
	{
		Name:     "fleet-durable",
		Scenario: exp.ScenarioGrayScott, Durable: true, Fleet: true, Clients: 2, Tenants: 4,
		SetupRepeats: 5, SetupRuns: 40, WarmRounds: 2, Rounds: 9, PerRound: 130, Samples: 8,
	},
	{
		Name:     "history-query",
		Scenario: exp.ScenarioQuickstart, Durable: true, Workers: 2, Clients: 2, Tenants: 8,
		SetupRepeats: 3, SetupRuns: 40, WarmRounds: 2, Rounds: 9, PerRound: 170, Samples: 8,
		Preload: 10000, SeedSpace: 16,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload sized for a --seconds other than nominal.
func (w workload) scaled(seconds int) workload {
	if seconds > 0 && seconds != nominalSeconds {
		w.PerRound = max(1, (w.PerRound*seconds+nominalSeconds/2)/nominalSeconds)
	}
	return w
}

// A job is one client step: the submission, plus — on history-query — the
// evicted run the read script looks up and whether this step also calls
// analytics.
type job struct {
	Tenant    string
	Job       exp.Job
	GetID     string
	Analytics bool
}

// plan is everything a pass submits, derived from the seed alone.
type plan struct {
	Preload  []job // in-process, before the reopen
	Setup    []job // driven by the clients at the end of each set-up
	Warm     []job
	Measured []job // Rounds × PerRound, cut into rounds by completion order
}

// On history-query every analyticsEvery-th script step also calls
// GET /v1/analytics, and every freshEvery-th submits a job outside the
// preloaded seed space, so real executions and their appends run beside
// the cache hits and the reads.
const (
	analyticsEvery = 25
	freshEvery     = 25
)

// makePlan is a pure function of (workload, seed): the same pair yields
// the same plan, and the seed is used for nothing else in the program.
func makePlan(w workload, seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1 << 30)
	tenant := func(i int) string { return fmt.Sprintf("tenant-%d", i) }
	next := 0
	take := func(n int) []job {
		out := make([]job, n)
		for i := range out {
			j := job{Tenant: tenant(rng.Intn(w.Tenants)),
				Job: exp.Job{Scenario: w.Scenario, Seed: base + int64(next)}}
			if w.Preload > 0 {
				if hit := base + int64(rng.Intn(w.SeedSpace)); next%freshEvery != 0 {
					j.Job.Seed = hit
				} else {
					j.Job.Seed += int64(w.SeedSpace)
				}
				j.GetID = fmt.Sprintf("run-%06d", rng.Intn(w.Preload))
				j.Analytics = next%analyticsEvery == analyticsEvery-1
			}
			next++
			out[i] = j
		}
		return out
	}
	var p plan
	for i := 0; i < w.Preload; i++ {
		p.Preload = append(p.Preload, job{Tenant: tenant(i % w.Tenants),
			Job: exp.Job{Scenario: w.Scenario, Seed: base + int64(i%w.SeedSpace)}})
	}
	p.Setup = take(w.SetupRuns)
	p.Warm = take(w.WarmRounds * w.PerRound)
	p.Measured = take(w.Rounds * w.PerRound)
	return p
}
