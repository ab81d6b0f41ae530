package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rpcTimer times every coordinator RPC the fleet workers make, from the
// bench's side of the http.RoundTripper seam (the one faultnet injects
// faults through). It is installed for the whole traced pass and records
// only while on.
type rpcTimer struct {
	on  atomic.Bool
	rec *recorder // spans too, when the pass traces

	mu    sync.Mutex
	secs  map[string][]float64 // kind → round-trip seconds, body included
	bytes int64                // request + response body bytes
}

func newRPCTimer(rec *recorder) *rpcTimer {
	return &rpcTimer{rec: rec, secs: map[string][]float64{}}
}

// transport returns worker i's RoundTripper. Each worker has one slot, so
// its RPCs are sequential and everything between a granted claim and the
// next belongs to the claimed run.
func (t *rpcTimer) transport(int) http.RoundTripper {
	return &workerTransport{t: t, next: &http.Transport{MaxIdleConnsPerHost: 2}}
}

type workerTransport struct {
	t    *rpcTimer
	next http.RoundTripper
	run  string // the run this worker last claimed
}

// rpcKind names the RPC a request is; "" for the ones that belong to no
// run (register, metrics push).
func rpcKind(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/claim"):
		return "claim"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/blobs/") && req.Method == http.MethodPut:
		return "blob_put"
	case strings.HasPrefix(p, "/v1/blobs/"):
		return "blob_probe"
	}
	return ""
}

func (w *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := rpcKind(req)
	if kind == "" || !w.t.on.Load() {
		return w.next.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := w.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	// Read the body here so the time covers the whole exchange; the
	// worker gets it back as an in-memory reader.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	resp.Body = io.NopCloser(bytes.NewReader(body))

	if kind == "claim" {
		if resp.StatusCode != http.StatusOK {
			return resp, nil // empty long-poll: idle time, not an RPC of any run
		}
		var claim struct {
			RunID string `json:"run_id"`
		}
		_ = json.Unmarshal(body, &claim) // a malformed claim fails in the worker, visibly
		w.run = claim.RunID
	}
	w.t.mu.Lock()
	w.t.secs[kind] = append(w.t.secs[kind], t1.Sub(t0).Seconds())
	w.t.bytes += max(req.ContentLength, 0) + int64(len(body))
	w.t.mu.Unlock()
	w.t.rec.add("fleet."+kind, w.run, -1, t0, t1)
	return resp, nil
}

// adoptFleetSpans gives each fleet RPC span its cause: the claim long-poll
// is what ends a run's queue wait; everything after it happens inside the
// run's execution phase as the coordinator sees it (lease granted → result
// applied), so server.exec's self time is what the worker spent outside
// RPCs: the world itself.
func adoptFleetSpans(spans []span) {
	type phases struct{ queue, exec int }
	byRun := map[string]*phases{}
	for i, sp := range spans {
		if sp.Name != "server.queue" && sp.Name != "server.exec" {
			continue
		}
		ph := byRun[sp.Run]
		if ph == nil {
			ph = &phases{-1, -1}
			byRun[sp.Run] = ph
		}
		if sp.Name == "server.queue" {
			ph.queue = i
		} else {
			ph.exec = i
		}
	}
	for i, sp := range spans {
		ph := byRun[sp.Run]
		if !strings.HasPrefix(sp.Name, "fleet.") || ph == nil {
			continue
		}
		if sp.Name == "fleet.claim" {
			spans[i].Parent = ph.queue
		} else {
			spans[i].Parent = ph.exec
		}
	}
}
