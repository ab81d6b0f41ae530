// Package loadgen is the campaign service's closed-loop load generator:
// N concurrent clients, each its own tenant, submit jobs against a
// dyflow-serve endpoint, poll them to completion, and fetch an artifact —
// measuring end-to-end campaign latency and throughput rather than raw
// HTTP rates. Backpressure (429) is handled the way a well-behaved client
// would: back off and resubmit, counting the rejection.
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/server"
	"dyflow/internal/server/events"
	"dyflow/internal/server/fleet"
	"dyflow/internal/stats"
)

// Options shapes a load run.
type Options struct {
	// Addr is the dyflow-serve address (host:port).
	Addr string
	// Clients is the number of concurrent closed-loop clients; each is its
	// own tenant ("tenant-0" …) unless Tenants says otherwise. Default 4.
	Clients int
	// Tenants spreads the clients over this many tenants (client c is
	// tenant c%Tenants) — fewer tenants than clients makes concurrent
	// same-tenant submissions contend on the per-tenant quota. 0 means one
	// tenant per client.
	Tenants int
	// PerClient is how many jobs each client drives to completion. Default 8.
	PerClient int
	// Scenario is the job scenario to submit (default quickstart).
	Scenario string
	// Machine is the job machine ("" means the server default, summit).
	Machine string
	// Seeds is the seed-space size: job n uses seed n%Seeds, so Seeds
	// smaller than the total job count forces cache hits. 0 means every
	// job gets a distinct seed (no hits).
	Seeds int
	// PollEvery is the status-poll interval. Default 5ms.
	PollEvery time.Duration
	// Metrics, when set, receives the dyflow_loadgen_* families.
	Metrics *obs.Registry

	// FleetWorkers, when positive, spawns that many in-process fleet
	// workers against Addr for the duration of the run — the coordinator
	// should then run no worker of its own (-workers -1) so the fleet does
	// all the executing.
	FleetWorkers int
	// WorkerSlots is each fleet worker's concurrent-claim count. 0 means 1.
	WorkerSlots int
	// KillWorker hard-kills one fleet worker while it holds a lease — the
	// chaos drill: its run must come back via lease expiry and finish on a
	// surviving worker, visible as lease_expiries >= 1 in the result.
	KillWorker bool

	// Stream switches clients from status polling to tailing each run's
	// SSE event stream (GET /v1/runs/{id}/events): a client considers the
	// run finished when the terminal event arrives, so the measured loop
	// exercises the live observability plane end to end. Cached runs are
	// tailed too — their stream is pure replay ending in the terminal
	// event. The result records events received and submit→terminal-event
	// latency percentiles.
	Stream bool
}

// Result is the aggregate outcome of a load run, JSON-shaped for
// BENCH_serve.json.
type Result struct {
	Clients     int     `json:"clients"`
	Jobs        int     `json:"jobs"`
	Completed   int     `json:"completed"`
	Cached      int     `json:"cached"`
	Rejected429 int     `json:"rejected_429"`
	Errors      int     `json:"errors"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	// End-to-end latency (submission accepted → done observed), seconds.
	LatencyP50 float64 `json:"latency_p50_s"`
	LatencyP90 float64 `json:"latency_p90_s"`
	LatencyP99 float64 `json:"latency_p99_s"`
	LatencyMax float64 `json:"latency_max_s"`

	// Streaming-mode fields: runs observed via SSE tail, events received
	// across all streams, and submit → terminal-event latency.
	StreamedRuns   int     `json:"streamed_runs,omitempty"`
	EventsReceived int64   `json:"events_received,omitempty"`
	StreamP50      float64 `json:"stream_latency_p50_s,omitempty"`
	StreamP90      float64 `json:"stream_latency_p90_s,omitempty"`
	StreamMax      float64 `json:"stream_latency_max_s,omitempty"`

	// History-plane verification: after the drive, the generator pages
	// through GET /v1/runs (cursor pagination) and records how many runs
	// the history reported and how many pages it took — a load test that
	// finishes with HistoryRuns == 0 exercised submissions but proves
	// nothing about the queryable run history.
	HistoryRuns  int `json:"history_runs,omitempty"`
	HistoryPages int `json:"history_pages,omitempty"`

	// Fleet-mode fields, scraped from the coordinator's /metrics.json.
	Mode          string  `json:"mode"`
	FleetWorkers  int     `json:"fleet_workers,omitempty"`
	WorkerKilled  bool    `json:"worker_killed,omitempty"`
	FleetClaims   float64 `json:"fleet_claims,omitempty"`
	LeaseExpiries float64 `json:"lease_expiries,omitempty"`
	StaleResults  float64 `json:"stale_results,omitempty"`
}

// gen is one load run in flight.
type gen struct {
	o      Options
	client *http.Client
	// streamer has no timeout: an SSE tail legitimately stays open for
	// the run's whole lifetime.
	streamer *http.Client
	base     string

	completed, cached, rejected, errors *obs.Counter
	latency                             *obs.Histogram

	mu         sync.Mutex
	res        *Result
	latencies  []float64
	streamLats []float64
}

// Run drives the load and blocks until every job reaches a verdict.
func Run(o Options) (*Result, error) {
	if o.Clients == 0 {
		o.Clients = 4
	}
	if o.PerClient == 0 {
		o.PerClient = 8
	}
	if o.Scenario == "" {
		o.Scenario = exp.ScenarioQuickstart
	}
	if o.PollEvery == 0 {
		o.PollEvery = 5 * time.Millisecond
	}
	g := &gen{
		o:        o,
		client:   &http.Client{Timeout: 30 * time.Second},
		streamer: &http.Client{},
		base:     "http://" + o.Addr,
		res:      &Result{Clients: o.Clients, Jobs: o.Clients * o.PerClient},
	}
	if o.Metrics != nil {
		g.completed = o.Metrics.Counter("dyflow_loadgen_completions_total",
			"Jobs driven to done.").With()
		g.cached = o.Metrics.Counter("dyflow_loadgen_cache_hits_total",
			"Jobs answered from the server's result cache.").With()
		g.rejected = o.Metrics.Counter("dyflow_loadgen_backpressure_total",
			"429 responses absorbed (quota or queue-full).").With()
		g.errors = o.Metrics.Counter("dyflow_loadgen_errors_total",
			"Jobs that failed or errored.").With()
		g.latency = o.Metrics.Histogram("dyflow_loadgen_latency_seconds",
			"End-to-end job latency.", nil).With()
	}

	var stopFleet func()
	if o.FleetWorkers > 0 {
		var err error
		if stopFleet, err = g.startFleet(); err != nil {
			return nil, err
		}
		g.res.Mode = "fleet"
		g.res.FleetWorkers = o.FleetWorkers
		g.res.WorkerKilled = o.KillWorker
	} else {
		g.res.Mode = "single"
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g.runClient(c)
		}(c)
	}
	wg.Wait()

	res := g.res
	res.WallSeconds = time.Since(start).Seconds()
	if res.WallSeconds > 0 {
		res.JobsPerSec = float64(res.Completed) / res.WallSeconds
	}
	sort.Float64s(g.latencies)
	res.LatencyP50 = stats.NearestRank(g.latencies, 0.50)
	res.LatencyP90 = stats.NearestRank(g.latencies, 0.90)
	res.LatencyP99 = stats.NearestRank(g.latencies, 0.99)
	if n := len(g.latencies); n > 0 {
		res.LatencyMax = g.latencies[n-1]
	}
	sort.Float64s(g.streamLats)
	res.StreamP50 = stats.NearestRank(g.streamLats, 0.50)
	res.StreamP90 = stats.NearestRank(g.streamLats, 0.90)
	if n := len(g.streamLats); n > 0 {
		res.StreamMax = g.streamLats[n-1]
	}
	if stopFleet != nil {
		stopFleet()
		g.scrapeFleetMetrics()
	}
	if err := g.verifyHistory(); err != nil {
		return res, err
	}
	if res.Errors > 0 {
		return res, fmt.Errorf("loadgen: %d of %d jobs failed", res.Errors, res.Jobs)
	}
	return res, nil
}

// startFleet joins o.FleetWorkers in-process workers to the coordinator.
// With KillWorker set, worker 0 is the victim: the moment it claims a run
// it is held pre-execution and hard-killed mid-lease, so the run must be
// recovered by lease expiry on a survivor. The returned stop function
// waits out the kill and drains the survivors.
func (g *gen) startFleet() (func(), error) {
	workers := make([]*fleet.Worker, 0, g.o.FleetWorkers)
	claimed := make(chan struct{})
	release := make(chan struct{})
	abort := make(chan struct{})
	killed := make(chan struct{})
	for i := 0; i < g.o.FleetWorkers; i++ {
		opts := fleet.WorkerOptions{
			Coordinator: g.o.Addr,
			Name:        fmt.Sprintf("loadgen-%d", i),
			Slots:       g.o.WorkerSlots,
			ClaimWait:   100 * time.Millisecond,
		}
		if i == 0 && g.o.KillWorker {
			var once sync.Once
			opts.OnClaim = func(string) {
				once.Do(func() {
					close(claimed)
					<-release
				})
			}
		}
		w, err := fleet.JoinFleet(opts)
		if err != nil {
			for _, started := range workers {
				started.Stop()
			}
			return nil, fmt.Errorf("loadgen: join fleet: %w", err)
		}
		workers = append(workers, w)
	}

	if g.o.KillWorker {
		go func() {
			defer close(killed)
			select {
			case <-claimed: // victim holds a lease: kill it mid-run
			case <-abort: // run drained without the victim claiming
			}
			done := make(chan struct{})
			go func() {
				workers[0].Kill()
				close(done)
			}()
			time.Sleep(20 * time.Millisecond) // let Kill flag the worker first
			close(release)
			<-done
		}()
	} else {
		close(killed)
	}

	return func() {
		close(abort)
		<-killed
		for i, w := range workers {
			if i == 0 && g.o.KillWorker {
				continue // already killed
			}
			w.Stop()
		}
	}, nil
}

// scrapeFleetMetrics pulls the coordinator's fleet counters into the
// result so BENCH_serve.json records the chaos outcome.
func (g *gen) scrapeFleetMetrics() {
	data, err := g.get("/metrics.json")
	if err != nil {
		return
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return
	}
	sum := func(name string) float64 {
		for _, m := range snap.Metrics {
			if m.Name != name {
				continue
			}
			var total float64
			for _, s := range m.Series {
				total += s.Value
			}
			return total
		}
		return 0
	}
	g.res.FleetClaims = sum("dyflow_server_fleet_claims_total")
	g.res.LeaseExpiries = sum("dyflow_server_fleet_lease_expiries_total")
	g.res.StaleResults = sum("dyflow_server_fleet_stale_results_total")
}

// verifyHistory pages through the coordinator's run history with cursor
// pagination and checks the totals line up: every page under the limit,
// no run listed twice, and at least every distinct completed job present.
func (g *gen) verifyHistory() error {
	const limit = 50
	seen := map[string]bool{}
	pages := 0
	token := ""
	for {
		path := fmt.Sprintf("/v1/runs?limit=%d", limit)
		if token != "" {
			path += "&page_token=" + token
		}
		data, err := g.get(path)
		if err != nil {
			return fmt.Errorf("loadgen: history page %d: %w", pages, err)
		}
		var page server.RunPage
		if err := json.Unmarshal(data, &page); err != nil {
			return fmt.Errorf("loadgen: history page %d: %w", pages, err)
		}
		pages++
		if len(page.Runs) > limit {
			return fmt.Errorf("loadgen: history page %d has %d runs, over the %d limit", pages, len(page.Runs), limit)
		}
		for _, st := range page.Runs {
			if seen[st.ID] {
				return fmt.Errorf("loadgen: run %s listed twice across history pages", st.ID)
			}
			seen[st.ID] = true
		}
		token = page.NextPageToken
		if token == "" {
			break
		}
	}
	g.mu.Lock()
	g.res.HistoryRuns = len(seen)
	g.res.HistoryPages = pages
	completed := g.res.Completed
	g.mu.Unlock()
	if len(seen) == 0 && completed > 0 {
		return fmt.Errorf("loadgen: %d jobs completed but the run history listed none", completed)
	}
	return nil
}

// runClient is one closed-loop client: submit, await, fetch, repeat.
func (g *gen) runClient(c int) {
	t := c
	if g.o.Tenants > 0 {
		t = c % g.o.Tenants
	}
	tenant := fmt.Sprintf("tenant-%d", t)
	for i := 0; i < g.o.PerClient; i++ {
		seed := int64(c*g.o.PerClient + i)
		if g.o.Seeds > 0 {
			seed %= int64(g.o.Seeds)
		}
		if err := g.driveJob(tenant, seed); err != nil {
			g.mu.Lock()
			g.res.Errors++
			g.mu.Unlock()
			g.errors.Inc()
		}
	}
}

func (g *gen) driveJob(tenant string, seed int64) error {
	st, err := g.submit(tenant, seed)
	if err != nil {
		return err
	}
	submitted := time.Now()
	if g.o.Stream {
		n, err := g.tailRun(st.ID)
		if err != nil {
			return err
		}
		streamLat := time.Since(submitted).Seconds()
		g.mu.Lock()
		g.res.StreamedRuns++
		g.res.EventsReceived += int64(n)
		g.streamLats = append(g.streamLats, streamLat)
		g.mu.Unlock()
		if st, err = g.status(st.ID); err != nil {
			return err
		}
	}
	for !st.State.Terminal() {
		time.Sleep(g.o.PollEvery)
		if st, err = g.status(st.ID); err != nil {
			return err
		}
	}
	if st.State != server.StateDone {
		return fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	// Fetch the report so the measured loop covers artifact delivery too.
	blob, err := g.get(fmt.Sprintf("/v1/runs/%s/artifacts/%s", st.ID, exp.ArtifactReport))
	if err != nil {
		return err
	}
	if len(blob) == 0 {
		return fmt.Errorf("run %s: empty report artifact", st.ID)
	}
	lat := time.Since(submitted).Seconds()
	g.mu.Lock()
	g.res.Completed++
	g.latencies = append(g.latencies, lat)
	if st.Cached {
		g.res.Cached++
	}
	g.mu.Unlock()
	g.completed.Inc()
	g.latency.Observe(lat)
	if st.Cached {
		g.cached.Inc()
	}
	return nil
}

// submit posts one job, absorbing 429 backpressure with retries.
func (g *gen) submit(tenant string, seed int64) (server.Status, error) {
	body, err := json.Marshal(server.SubmitRequest{
		Tenant: tenant,
		Job:    exp.Job{Scenario: g.o.Scenario, Machine: g.o.Machine, Seed: seed},
	})
	if err != nil {
		return server.Status{}, err
	}
	backoff := g.o.PollEvery
	for {
		resp, err := g.client.Post(g.base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return server.Status{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return server.Status{}, err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			g.mu.Lock()
			g.res.Rejected429++
			g.mu.Unlock()
			g.rejected.Inc()
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
			continue
		case resp.StatusCode >= 300:
			return server.Status{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		var st server.Status
		return st, json.Unmarshal(data, &st)
	}
}

// tailRun opens a run's SSE stream and reads frames until the terminal
// event, returning how many events arrived. The server ends the stream
// right after the terminal event, so a stream that closes without one is
// an error.
func (g *gen) tailRun(id string) (int, error) {
	resp, err := g.streamer.Get(g.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		data, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("stream %s: %s: %s", id, resp.Status, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	count := 0
	var evType string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // frame boundary
			if evType == "" {
				continue // comment-only frame (e.g. drop notice)
			}
			count++
			if events.Type(evType).Terminal() {
				return count, nil
			}
			evType = ""
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		}
	}
	if err := sc.Err(); err != nil {
		return count, fmt.Errorf("stream %s: %w", id, err)
	}
	return count, fmt.Errorf("stream %s ended after %d events without a terminal event", id, count)
}

func (g *gen) status(id string) (server.Status, error) {
	data, err := g.get("/v1/runs/" + id)
	if err != nil {
		return server.Status{}, err
	}
	var st server.Status
	return st, json.Unmarshal(data, &st)
}

func (g *gen) get(path string) ([]byte, error) {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}
