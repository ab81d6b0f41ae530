package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A metric is one reported number. N is the sample count behind a timing
// (0 where it does not apply).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// A result is one pass of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Failures  []string `json:"failures,omitempty"` // first few, for the reader
	// RoundRates is runs_per_s round by round, for the reader of the result
	// file who wants to see where in a pass it slowed down.
	RoundRates []float64 `json:"round_runs_per_s,omitempty"`
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// counters is a reading of the process-wide meters a pass differences.
type counters struct {
	cpu     float64 // user+sys seconds, getrusage(RUSAGE_SELF)
	alloc   uint64  // runtime.MemStats.TotalAlloc
	gcs     uint32
	pauseNs uint64
	rssKB   int64 // peak so far
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return counters{cpu: tv(ru.Utime) + tv(ru.Stime), alloc: ms.TotalAlloc,
		gcs: ms.NumGC, pauseNs: ms.PauseTotalNs, rssKB: ru.Maxrss}
}

const mb = 1 << 20

// A pass owns one workload's stack and everything its clients measured.
type pass struct {
	w    workload
	plan plan
	tmp  string                      // scratch directory inside the checkout
	rpc  func(int) http.RoundTripper // wraps each fleet worker's transport; nil outside the traced pass

	st      *stack
	dir     string
	clients []*client
	pre     *preloaded
	steps   []stepRecord // every client step on the kept stack, in plan order
	// measuredFrom is where in steps the first measured round starts: the
	// output checks sample from there on.
	measuredFrom int
}

// stepRecord pairs a planned job with what its step measured.
type stepRecord struct {
	job job
	sample
}

// setUp builds the stack from nothing in a fresh directory and ends with
// the plan's set-up runs, so lazy first-run work is inside the time it
// returns: server build, preload + close + reopen (history-query), fleet
// join, first runs to done.
func (p *pass) setUp(n int) (time.Duration, error) {
	p.dir = filepath.Join(p.tmp, fmt.Sprintf("ckpt-%d", n))
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err := startStack(p.w, p.dir, p.rpc)
	if err != nil {
		return 0, err
	}
	p.st = st
	if len(p.plan.Preload) > 0 {
		if err := st.preload(p.plan.Preload, p.w.SeedSpace); err != nil {
			return 0, err
		}
		if _, err := st.reopen(); err != nil {
			return 0, err
		}
		p.pre = &preloaded{count: p.w.Preload, tenants: p.w.Tenants}
	}
	p.connect()
	p.steps, p.measuredFrom = nil, 0
	if err := p.driveAll(p.plan.Setup); err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	return time.Since(t0), nil
}

// driveAll drives jobs outside any measurement and returns the first
// failure.
func (p *pass) driveAll(jobs []job) error {
	samples, _ := p.drive(jobs, max(len(jobs), 1))
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// connect gives each client goroutine its connection to the current
// coordinator address.
func (p *pass) connect() {
	for _, c := range p.clients {
		c.close()
	}
	p.clients = nil
	for i := 0; i < p.w.Clients; i++ {
		p.clients = append(p.clients, newClient(p.st.addr))
	}
}

// tearDown stops the stack and deletes its directory.
func (p *pass) tearDown() {
	for _, c := range p.clients {
		c.close()
	}
	p.clients = nil
	if p.st != nil {
		p.st.close()
		p.st = nil
	}
	os.RemoveAll(p.dir)
}

// drive has the clients work through jobs closed-loop — each takes the
// next unclaimed job when its previous run reached its terminal event —
// and returns once all are finished. Every perRound-th completion closes
// a round and its time is returned. There is no barrier between rounds,
// so no client ever idles.
func (p *pass) drive(jobs []job, perRound int) ([]sample, []time.Time) {
	out := make([]sample, len(jobs))
	ends := make([]time.Time, len(jobs)/perRound)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = c.step(jobs[i], p.pre)
				if k := int(done.Add(1)); k%perRound == 0 {
					ends[k/perRound-1] = time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	for i, s := range out {
		p.steps = append(p.steps, stepRecord{jobs[i], s})
	}
	return out, ends
}

// rounds is what the measured part of a pass produced. A round is perRound
// consecutive completions.
type rounds struct {
	rates   []float64 // per round: completions / round wall
	samples []sample
	before  counters
	after   counters
	disk    diskUse // growth under CkptDir over the rounds
	heapMB  float64 // HeapAlloc after two forced GCs, server still open
}

// diskUse is bytes under CkptDir by owner: runs/ is the runstore's
// segments, blobs/ the artifact store, the files beside them the ckpt WAL
// and snapshot.
type diskUse struct{ runs, blobs, ckpt int64 }

func (d diskUse) total() int64 { return d.runs + d.blobs + d.ckpt }

func readDisk(dir string) diskUse {
	d := diskUse{runs: treeBytes(filepath.Join(dir, "runs")), blobs: treeBytes(filepath.Join(dir, "blobs"))}
	entries, _ := os.ReadDir(dir) // a memory-only pass has no directory: nothing on disk
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && e.Type().IsRegular() {
			d.ckpt += fi.Size()
		}
	}
	return d
}

func (r *rounds) runs() int { return len(r.samples) }

// cpuPerRun is user + system CPU seconds over the rounds, per run.
func (r *rounds) cpuPerRun() float64 { return (r.after.cpu - r.before.cpu) / float64(r.runs()) }

// measure runs jobs as rounds of perRound between two counter readings.
func (p *pass) measure(jobs []job, perRound int) rounds {
	var m rounds
	if p.measuredFrom == 0 {
		p.measuredFrom = len(p.steps)
	}
	runtime.GC()
	disk0 := readDisk(p.dir)
	m.before = readCounters()
	last := time.Now()
	var ends []time.Time
	m.samples, ends = p.drive(jobs, perRound)
	m.after = readCounters()
	disk1 := readDisk(p.dir)
	m.disk = diskUse{disk1.runs - disk0.runs, disk1.blobs - disk0.blobs, disk1.ckpt - disk0.ckpt}
	for _, end := range ends {
		m.rates = append(m.rates, float64(perRound)/end.Sub(last).Seconds())
		last = end
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / mb
	return m
}

// column extracts one timing from every sample that finished cleanly.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.err == nil {
			out = append(out, f(s))
		}
	}
	return sortedCopy(out)
}

// runEndToEnd is the untraced pass: the set-up repeated from nothing
// (setup_s is the median, which drops the cold first one), discarded
// warm-up, measured rounds, output checks. It reports the end-to-end
// metrics.
func runEndToEnd(w workload, seed int64, tmp string) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed}
	p := &pass{w: w, plan: makePlan(w, seed), tmp: tmp}
	defer p.tearDown()

	var setups []float64
	for i := 0; i < w.SetupRepeats; i++ {
		if i > 0 {
			p.tearDown()
		}
		d, err := p.setUp(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
	}
	if err := p.driveAll(p.plan.Warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m := p.measure(p.plan.Measured, w.PerRound)

	n := float64(m.runs())
	lat := column(m.samples, func(s sample) float64 { return s.latency })
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("runs_per_s", median(m.rates), "runs/s", len(m.rates))
	res.add("run_latency_p50_s", percentile(lat, 50), "s", len(lat))
	res.add("cpu_s_per_run", m.cpuPerRun(), "s", m.runs())
	res.add("alloc_mb_per_run", float64(m.after.alloc-m.before.alloc)/mb/n, "MB", m.runs())
	res.add("live_heap_mb", m.heapMB, "MB", 0)
	res.RoundRates = m.rates

	p.check(res)
	return res, nil
}
