// Package loadgen is a closed-loop client of the campaign service, for the
// drills in this package's tests: concurrent clients submit jobs against a
// dyflow-serve endpoint, follow each to its terminal state — polling its
// status or tailing its event stream — and fetch an artifact. Backpressure
// (429) is handled the way a well-behaved client would: back off and
// resubmit, counting the rejection. What a drill asserts about the service
// under that load it reads from the Result and the coordinator's registry.
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server"
	"dyflow/internal/server/events"
)

// pollEvery is the status-poll interval and the first 429 backoff.
const pollEvery = 5 * time.Millisecond

// Options shapes a load run: Clients × PerClient quickstart jobs.
type Options struct {
	// Addr is the dyflow-serve address (host:port).
	Addr string
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Tenants spreads the clients over this many tenants (client c is
	// tenant c%Tenants) — fewer tenants than clients makes concurrent
	// same-tenant submissions contend on the per-tenant quota. 0 means one
	// tenant per client.
	Tenants int
	// PerClient is how many jobs each client drives to completion.
	PerClient int
	// Seeds is the seed-space size: job n uses seed n%Seeds, so Seeds
	// smaller than the total job count forces cache hits. 0 means every
	// job gets a distinct seed (no hits).
	Seeds int
	// Stream switches clients from status polling to tailing each run's
	// SSE event stream (GET /v1/runs/{id}/events) to its end, which must
	// be exactly one terminal event. Cached runs are tailed too — their
	// stream is pure replay ending in the terminal event.
	Stream bool
}

// Result is the outcome of a load run as its clients saw it.
type Result struct {
	Jobs        int
	Completed   int // driven to done, report artifact fetched
	Cached      int // of those, answered from the result cache
	Rejected429 int // backpressure responses absorbed
	Errors      int // jobs that failed or errored

	// Streaming mode: runs tailed to their terminal event, and events
	// received across all streams.
	StreamedRuns   int
	EventsReceived int

	// HistoryRuns is how many runs GET /v1/runs listed after the drive,
	// paged through by cursor.
	HistoryRuns int
}

// gen is one load run in flight.
type gen struct {
	o      Options
	client *http.Client
	// streamer has no timeout: an SSE tail legitimately stays open for
	// the run's whole lifetime.
	streamer *http.Client
	base     string

	mu       sync.Mutex
	res      Result
	firstErr error
}

// Run drives the load and blocks until every job reaches a verdict. The
// result is populated whatever the error.
func Run(o Options) (Result, error) {
	g := &gen{
		o:        o,
		client:   &http.Client{Timeout: 30 * time.Second},
		streamer: &http.Client{},
		base:     "http://" + o.Addr,
		res:      Result{Jobs: o.Clients * o.PerClient},
	}
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g.runClient(c)
		}(c)
	}
	wg.Wait()

	if g.res.Errors > 0 {
		return g.res, fmt.Errorf("loadgen: %d of %d jobs failed, the first: %w", g.res.Errors, g.res.Jobs, g.firstErr)
	}
	err := g.verifyHistory()
	return g.res, err
}

// verifyHistory pages through the coordinator's run history with cursor
// pagination: every page under the limit, no run listed twice.
func (g *gen) verifyHistory() error {
	const limit = 50
	seen := map[string]bool{}
	for page, token := 0, ""; ; page++ {
		path := fmt.Sprintf("/v1/runs?limit=%d", limit)
		if token != "" {
			path += "&page_token=" + token
		}
		var p server.RunPage
		if err := g.getJSON(path, &p); err != nil {
			return fmt.Errorf("loadgen: history page %d: %w", page, err)
		}
		if len(p.Runs) > limit {
			return fmt.Errorf("loadgen: history page %d has %d runs, over the %d limit", page, len(p.Runs), limit)
		}
		for _, st := range p.Runs {
			if seen[st.ID] {
				return fmt.Errorf("loadgen: run %s listed twice across history pages", st.ID)
			}
			seen[st.ID] = true
		}
		if token = p.NextPageToken; token == "" {
			break
		}
	}
	g.res.HistoryRuns = len(seen)
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
			if g.firstErr == nil {
				g.firstErr = err
			}
			g.mu.Unlock()
		}
	}
}

func (g *gen) driveJob(tenant string, seed int64) error {
	st, err := g.submit(tenant, seed)
	if err != nil {
		return err
	}
	if g.o.Stream {
		n, err := g.tailRun(st.ID)
		if err != nil {
			return err
		}
		g.mu.Lock()
		g.res.StreamedRuns++
		g.res.EventsReceived += n
		g.mu.Unlock()
		if st, err = g.status(st.ID); err != nil {
			return err
		}
		if !st.State.Terminal() {
			return fmt.Errorf("run %s is %s after its stream's terminal event", st.ID, st.State)
		}
	}
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		if st, err = g.status(st.ID); err != nil {
			return err
		}
	}
	if st.State != server.StateDone {
		return fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	// Fetch the report so the loop covers artifact delivery too.
	blob, err := g.get(fmt.Sprintf("/v1/runs/%s/artifacts/%s", st.ID, exp.ArtifactReport))
	if err != nil {
		return err
	}
	if len(blob) == 0 {
		return fmt.Errorf("run %s: empty report artifact", st.ID)
	}
	g.mu.Lock()
	g.res.Completed++
	if st.Cached {
		g.res.Cached++
	}
	g.mu.Unlock()
	return nil
}

// submit posts one job, absorbing 429 backpressure with retries.
func (g *gen) submit(tenant string, seed int64) (server.Status, error) {
	body, err := json.Marshal(server.SubmitRequest{
		Tenant: tenant,
		Job:    exp.Job{Scenario: exp.ScenarioQuickstart, Seed: seed},
	})
	if err != nil {
		return server.Status{}, err
	}
	backoff := pollEvery
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

// tailRun reads a run's SSE stream until the server ends it and returns how
// many events arrived. The server ends a stream right after the terminal
// event, so anything but exactly one terminal event, last, is an error.
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
	count, terminals := 0, 0
	var evType, last string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // frame boundary
			if evType == "" {
				continue // comment-only frame (e.g. drop notice)
			}
			count++
			if events.Type(evType).Terminal() {
				terminals++
			}
			last, evType = evType, ""
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		}
	}
	if err := sc.Err(); err != nil {
		return count, fmt.Errorf("stream %s: %w", id, err)
	}
	if terminals != 1 || !events.Type(last).Terminal() {
		return count, fmt.Errorf("stream %s ended after %d events, %d of them terminal, the last %q", id, count, terminals, last)
	}
	return count, nil
}

func (g *gen) status(id string) (st server.Status, err error) {
	return st, g.getJSON("/v1/runs/"+id, &st)
}

func (g *gen) getJSON(path string, v any) error {
	data, err := g.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
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
