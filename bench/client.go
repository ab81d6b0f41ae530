package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server"
	"dyflow/internal/server/events"
)

// A client is one closed-loop caller of the campaign service: it waits
// for its run before sending the next. It owns one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	rec  *recorder // set while the traced pass records spans
}

func newClient(addr string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// A sample is what one client step measured.
type sample struct {
	id       string
	ack      float64 // POST /v1/runs sent → 202 body read, seconds
	latency  float64 // POST sent → terminal SSE event received, seconds
	frames   int
	cached   bool
	rejected int   // 429s absorbed before the submission was admitted
	err      error // non-nil: the step counts as failed
}

// get fetches path and returns the body; any status >= 300 is an error.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
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

func (c *client) getJSON(path string, v any) error {
	data, err := c.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// submit posts one job and reads the 202 body. A 429 is retried after a
// short pause and counted: with two clients under the default quota and
// queue depth it never happens, and if it ever does the step is failed.
func (c *client) submit(j job) (st server.Status, rejected int, err error) {
	body, err := json.Marshal(server.SubmitRequest{Tenant: j.Tenant, Job: j.Job})
	if err != nil {
		return st, 0, err
	}
	for {
		resp, err := c.hc.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return st, rejected, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return st, rejected, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && rejected < 100 {
			rejected++
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return st, rejected, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		return st, rejected, json.Unmarshal(data, &st)
	}
}

// tail reads a run's SSE stream to its terminal event and returns that
// event, when its frame arrived, and how many event frames came before
// and with it.
func (c *client) tail(id string) (term events.Event, at time.Time, frames int, err error) {
	resp, err := c.hc.Get(c.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return term, at, 0, err
	}
	// Draining to EOF (the server ends the stream after the terminal
	// event) returns the connection to the keep-alive pool.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		return term, at, 0, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var typ, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && typ != "":
			frames++
			if events.Type(typ).Terminal() {
				at = time.Now()
				return term, at, frames, json.Unmarshal([]byte(data), &term)
			}
			typ, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return term, at, frames, fmt.Errorf("events %s: %w", id, err)
	}
	return term, at, frames, fmt.Errorf("events %s: stream ended after %d frames without a terminal event", id, frames)
}

// step runs one job the way a caller would: submit, tail the event stream
// to the terminal event, check it — and on history-query run the read
// script beside it. With tracing on, every call is recorded as a span.
func (c *client) step(j job, pre *preloaded) sample {
	var s sample
	sent := time.Now()
	st, rejected, err := c.submit(j)
	s.ack, s.rejected, s.id = time.Since(sent).Seconds(), rejected, st.ID
	if err != nil {
		s.err = err
		return s
	}
	term, at, frames, err := c.tail(st.ID)
	if err != nil {
		s.err = err
		return s
	}
	s.latency, s.frames, s.cached = at.Sub(sent).Seconds(), frames, term.Cached
	switch {
	case rejected > 0:
		s.err = fmt.Errorf("run %s: %d submissions refused with 429", st.ID, rejected)
	case term.Type != events.TypeDone || !term.Converged:
		s.err = fmt.Errorf("run %s ended %s converged=%v: %s", st.ID, term.Type, term.Converged, term.Error)
	}

	root := -1
	if c.rec != nil {
		// Placeholder end; moved once the step's last call has returned.
		root = c.rec.add("run", st.ID, -1, sent, at)
		c.tracePhases(st.ID, root, sent, at)
	}
	if pre != nil && s.err == nil {
		s.err = c.readScript(j, pre, st.ID, root)
	}
	if c.rec != nil {
		c.rec.setEnd(root, time.Now())
	}
	return s
}

// tracePhases fetches the finished run's status and cuts the interval from
// the POST to the terminal frame's arrival at the coordinator's own phase
// timestamps, so the spans under the root follow one another without
// overlap: server.admit (POST sent → run queued, or for a cache hit →
// finished: transport, decode, admission), server.queue, server.exec,
// events.delivery (finished → frame arrived). claimed_at equals started_at
// on both execution paths, so there is no claim-to-start span. Coordinator
// and bench share a process, so the timestamps are on one clock.
func (c *client) tracePhases(id string, root int, sent, arrived time.Time) {
	t0 := time.Now()
	var st server.Status
	err := c.getJSON("/v1/runs/"+id, &st)
	c.rec.add("status", id, root, t0, time.Now())
	if err != nil || st.FinishedAt == nil {
		return
	}
	admitted := *st.FinishedAt
	if st.QueuedAt != nil && st.StartedAt != nil {
		admitted = *st.QueuedAt
		c.rec.add("server.queue", id, root, *st.QueuedAt, *st.StartedAt)
		c.rec.add("server.exec", id, root, *st.StartedAt, *st.FinishedAt)
	}
	c.rec.add("server.admit", id, root, sent, admitted)
	c.rec.add("events.delivery", id, root, *st.FinishedAt, arrived)
}

// preloaded is what the history-query read script checks its answers
// against: the shape of the preloaded history.
type preloaded struct {
	count   int
	tenants int
}

// analyticsPath is the analytics view the benchmark times.
const analyticsPath = "/v1/analytics?trend_bucket=1m&trend_buckets=12"

// listPath is the filtered list query the benchmark times.
func listPath(tenant string) string {
	return "/v1/runs?tenant=" + tenant + "&state=done&limit=100"
}

// readScript is the history-query read side of one step: filtered list
// page 1, page 2 by its token, an evicted run's status, its report
// artifact, and on every analyticsEvery-th step the analytics view.
// Preloaded run i belongs to tenant i%tenants, so the IDs both pages must
// hold are known exactly: a repeated or skipped ID fails the step.
func (c *client) readScript(j job, pre *preloaded, run string, root int) error {
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		c.rec.add(name, run, root, t0, time.Now())
		return err
	}
	tn, err := strconv.Atoi(strings.TrimPrefix(j.Tenant, "tenant-"))
	if err != nil {
		return fmt.Errorf("tenant %q: %w", j.Tenant, err)
	}
	var page server.RunPage
	checkPage := func(p int) error {
		if len(page.Runs) != 100 {
			return fmt.Errorf("list page %d for %s has %d runs, want 100", p+1, j.Tenant, len(page.Runs))
		}
		for k, r := range page.Runs {
			if want := fmt.Sprintf("run-%06d", tn+pre.tenants*(100*p+k)); r.ID != want {
				return fmt.Errorf("list page %d for %s: item %d is %s, want %s", p+1, j.Tenant, k, r.ID, want)
			}
		}
		return nil
	}
	err = timed("read.list", func() error { return c.getJSON(listPath(j.Tenant), &page) })
	if err == nil {
		err = checkPage(0)
	}
	if err != nil {
		return err
	}
	token := page.NextPageToken
	page = server.RunPage{}
	if err := timed("read.page2", func() error {
		return c.getJSON(listPath(j.Tenant)+"&page_token="+token, &page)
	}); err != nil {
		return err
	}
	if err := checkPage(1); err != nil {
		return err
	}
	var st server.Status
	if err := timed("read.get", func() error { return c.getJSON("/v1/runs/"+j.GetID, &st) }); err != nil {
		return err
	}
	if st.ID != j.GetID || st.State != server.StateDone {
		return fmt.Errorf("evicted run %s read back as %s %s", j.GetID, st.ID, st.State)
	}
	if err := timed("read.artifact", func() error {
		blob, err := c.get("/v1/runs/" + j.GetID + "/artifacts/" + exp.ArtifactReport)
		if err == nil && len(blob) == 0 {
			err = fmt.Errorf("run %s: empty report artifact", j.GetID)
		}
		return err
	}); err != nil {
		return err
	}
	if j.Analytics {
		var a server.Analytics
		if err := timed("read.analytics", func() error { return c.getJSON(analyticsPath, &a) }); err != nil {
			return err
		}
		if a.Runs < pre.count {
			return fmt.Errorf("analytics counts %d runs, fewer than the %d preloaded", a.Runs, pre.count)
		}
	}
	return nil
}
