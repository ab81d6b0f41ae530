// Package faultnet is the fleet plane's network chaos layer: a seeded,
// deterministic fault-injecting http.RoundTripper that the chaos-net
// sweep (and tests) wrap around a fleet worker's HTTP client to prove
// the coordinator↔worker RPC plane survives a hostile network.
//
// Six fault modes cover the failure taxonomy of a real cluster fabric:
//
//   - latency: the request is delayed before it is forwarded (a
//     congested link or a GC-pausing coordinator);
//   - drop: the connection fails before the request is sent (connection
//     refused / reset — the request never reaches the server);
//   - 5xx: a synthesized 502 comes back without the request being
//     forwarded (a sick proxy or load balancer in the path);
//   - timeout: the call hangs until the caller's context deadline fires
//     (a black-holed packet — per-call deadlines are what save you);
//   - truncate: the request is served but the response body is cut
//     short of its Content-Length (a torn connection mid-transfer);
//   - lost_reply: the request is served — the server's state DID change
//     — but the response never makes it back. This is the mode that
//     forces idempotent retries: a result POST whose 200 is lost must
//     be safe to send again.
//
// On top of the per-request modes, Partition opens a full-outage window
// in one direction: Outbound partitions fail every request before it is
// sent (worker→coordinator direction severed), Inbound partitions serve
// every request but lose every reply (coordinator→worker direction
// severed — the nastier half, because server state keeps changing).
//
// Injection is seeded: a Plan is derived deterministically from a seed
// (PlanForSeed) and the per-request rolls come from a seeded PRNG, so a
// failing sweep seed replays the same fault distribution. Exact
// per-request assignment still depends on goroutine interleaving — the
// guarantees the sweep asserts (no lost runs, no double completions)
// must hold for every interleaving anyway.
package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Mode is one kind of injected fault.
type Mode string

// The fault modes, in the order Plan probabilities are consumed.
const (
	ModeLatency   Mode = "latency"
	ModeDrop      Mode = "drop"
	Mode5xx       Mode = "5xx"
	ModeTimeout   Mode = "timeout"
	ModeTruncate  Mode = "truncate"
	ModeLostReply Mode = "lost_reply"
	// ModePartition counts requests failed by an open Partition window
	// (it has no probability of its own).
	ModePartition Mode = "partition"
)

// Direction selects which half of the link a Partition severs.
type Direction int

const (
	// Outbound severs client→server: requests fail before they are sent.
	Outbound Direction = iota
	// Inbound severs server→client: requests are served (server state
	// changes) but every reply is lost.
	Inbound
)

// Plan is a seeded fault schedule: the per-request probability of each
// mode plus the latency envelope. Probabilities are evaluated as one
// cumulative roll per request, so their sum should stay <= 1 (the
// remainder is the clean-forward probability).
type Plan struct {
	Seed int64 `json:"seed"`

	Latency   float64 `json:"latency"`
	Drop      float64 `json:"drop"`
	Err5xx    float64 `json:"err5xx"`
	Timeout   float64 `json:"timeout"`
	Truncate  float64 `json:"truncate"`
	LostReply float64 `json:"lost_reply"`

	// LatencyMin/Max bound an injected latency spike. Zero means
	// 5ms–150ms.
	LatencyMin time.Duration `json:"-"`
	LatencyMax time.Duration `json:"-"`
	// TimeoutHold caps how long a ModeTimeout fault hangs when the
	// caller has no deadline of its own. Zero means 2s.
	TimeoutHold time.Duration `json:"-"`
}

// PlanForSeed derives the chaos-net sweep's fault plan for one seed: a
// moderate mixed background of every mode, with the seed rotating which
// mode is emphasized so a 5-seed sweep covers a latency-heavy, a
// drop-heavy, a 5xx-heavy, a truncation-heavy, and a lost-reply-heavy
// schedule (the acceptance matrix).
func PlanForSeed(seed int64) Plan {
	p := Plan{
		Seed:      seed,
		Latency:   0.05,
		Drop:      0.03,
		Err5xx:    0.03,
		Timeout:   0.01,
		Truncate:  0.03,
		LostReply: 0.03,

		LatencyMin:  2 * time.Millisecond,
		LatencyMax:  60 * time.Millisecond,
		TimeoutHold: 300 * time.Millisecond,
	}
	emphasis := seed % 5
	if emphasis < 0 {
		emphasis = -emphasis
	}
	switch emphasis {
	case 0:
		p.Latency = 0.25
	case 1:
		p.Drop = 0.20
	case 2:
		p.Err5xx = 0.20
	case 3:
		p.Truncate = 0.15
	case 4:
		p.LostReply = 0.15
	}
	return p
}

// Fault describes one injected fault (the OnFault observability hook).
type Fault struct {
	Mode   Mode
	Method string
	Path   string
	Delay  time.Duration
}

// Error is the error a faulted request fails with. It unwraps to
// nothing — callers should treat it exactly like any transport error.
type Error struct{ f Fault }

func (e *Error) Error() string {
	return fmt.Sprintf("faultnet: injected %s on %s %s", e.f.Mode, e.f.Method, e.f.Path)
}

// Transport is the fault-injecting RoundTripper. Wrap it around a
// worker's (or any client's) transport:
//
//	client := &http.Client{Transport: faultnet.New(plan, nil)}
//
// All methods are safe for concurrent use.
type Transport struct {
	plan Plan
	next http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	partUntil time.Time
	partDir   Direction
	counts    map[Mode]int64

	// exempt, when set, skips injection for matching requests.
	exempt func(method, path string) bool
	// onFault, when set, observes every injected fault.
	onFault func(Fault)
}

// New builds a Transport applying plan on top of next (nil means
// http.DefaultTransport).
func New(plan Plan, next http.RoundTripper) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	if plan.LatencyMin <= 0 {
		plan.LatencyMin = 5 * time.Millisecond
	}
	if plan.LatencyMax < plan.LatencyMin {
		plan.LatencyMax = plan.LatencyMin + 145*time.Millisecond
	}
	if plan.TimeoutHold <= 0 {
		plan.TimeoutHold = 2 * time.Second
	}
	return &Transport{
		plan:   plan,
		next:   next,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		counts: map[Mode]int64{},
	}
}

// Exempt installs a filter: requests it returns true for are never
// faulted (e.g. keep the register path clean so a worker can join).
func (t *Transport) Exempt(fn func(method, path string) bool) { t.exempt = fn }

// OnFault installs an observer called with every injected fault.
func (t *Transport) OnFault(fn func(Fault)) { t.onFault = fn }

// Partition opens a full-outage window for d in the given direction,
// replacing any window already open. The window applies to every
// request regardless of the Exempt filter — a severed link does not
// spare administrative traffic.
func (t *Transport) Partition(d time.Duration, dir Direction) {
	t.mu.Lock()
	t.partUntil = time.Now().Add(d)
	t.partDir = dir
	t.mu.Unlock()
}

// Heal closes any open partition window.
func (t *Transport) Heal() {
	t.mu.Lock()
	t.partUntil = time.Time{}
	t.mu.Unlock()
}

// Counts returns how many faults of each mode have been injected.
func (t *Transport) Counts() map[Mode]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Mode]int64, len(t.counts))
	for m, n := range t.counts {
		out[m] = n
	}
	return out
}

// roll decides this request's fate: the active partition direction (ok
// true), or one sampled fault mode ("" = forward cleanly).
func (t *Transport) roll() (part Direction, partitioned bool, mode Mode, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if time.Now().Before(t.partUntil) {
		return t.partDir, true, "", 0
	}
	r := t.rng.Float64()
	p := t.plan
	switch {
	case r < p.Latency:
		mode = ModeLatency
		span := p.LatencyMax - p.LatencyMin
		delay = p.LatencyMin
		if span > 0 {
			delay += time.Duration(t.rng.Int63n(int64(span)))
		}
	case r < p.Latency+p.Drop:
		mode = ModeDrop
	case r < p.Latency+p.Drop+p.Err5xx:
		mode = Mode5xx
	case r < p.Latency+p.Drop+p.Err5xx+p.Timeout:
		mode = ModeTimeout
	case r < p.Latency+p.Drop+p.Err5xx+p.Timeout+p.Truncate:
		mode = ModeTruncate
	case r < p.Latency+p.Drop+p.Err5xx+p.Timeout+p.Truncate+p.LostReply:
		mode = ModeLostReply
	}
	return 0, false, mode, delay
}

func (t *Transport) note(f Fault) {
	t.mu.Lock()
	t.counts[f.Mode]++
	fn := t.onFault
	t.mu.Unlock()
	if fn != nil {
		fn(f)
	}
}

// RoundTrip injects this request's fault (if any) and forwards the rest.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := Fault{Method: req.Method, Path: req.URL.Path}

	dir, partitioned, mode, delay := t.roll()
	if partitioned {
		f.Mode = ModePartition
		t.note(f)
		if dir == Outbound {
			// Severed on the way out: the server never sees it.
			closeBody(req)
			return nil, &Error{f}
		}
		// Severed on the way back: serve it, then lose the reply.
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &Error{f}
	}

	if mode != "" && t.exempt != nil && t.exempt(req.Method, req.URL.Path) {
		mode = ""
	}
	switch mode {
	case ModeLatency:
		f.Mode, f.Delay = ModeLatency, delay
		t.note(f)
		if err := sleepReq(req, delay); err != nil {
			closeBody(req)
			return nil, err
		}
		return t.next.RoundTrip(req)
	case ModeDrop:
		f.Mode = ModeDrop
		t.note(f)
		closeBody(req)
		return nil, &Error{f}
	case Mode5xx:
		f.Mode = Mode5xx
		t.note(f)
		closeBody(req)
		return synthesized(req, http.StatusBadGateway, "faultnet: injected 502"), nil
	case ModeTimeout:
		f.Mode = ModeTimeout
		t.note(f)
		closeBody(req)
		if err := sleepReq(req, t.plan.TimeoutHold); err != nil {
			return nil, err // the caller's deadline fired, as intended
		}
		return nil, &Error{f}
	case ModeTruncate:
		f.Mode = ModeTruncate
		t.note(f)
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		truncateBody(resp)
		return resp, nil
	case ModeLostReply:
		f.Mode = ModeLostReply
		t.note(f)
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &Error{f}
	}
	return t.next.RoundTrip(req)
}

// sleepReq sleeps for d or until the request's context is done.
func sleepReq(req *http.Request, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-req.Context().Done():
		return req.Context().Err()
	case <-timer.C:
		return nil
	}
}

// closeBody releases a request body that will never be forwarded, as a
// RoundTripper must: its sender may wait for the close before it reuses
// the bytes (fleet's PutBlobs does).
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// synthesized builds a response that never touched the server.
func synthesized(req *http.Request, code int, body string) *http.Response {
	return &http.Response{
		StatusCode:    code,
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody replaces the response body with one that delivers only
// half the advertised bytes, then fails with io.ErrUnexpectedEOF. The
// Content-Length header is left intact — that mismatch is exactly how a
// client detects the truncation (the server commits to a length before
// the first body byte; see Server.writeJSON).
func truncateBody(resp *http.Response) {
	n := resp.ContentLength / 2
	if n < 0 {
		n = 64 // unknown length: deliver a token prefix, then tear
	}
	resp.Body = &truncatedBody{r: io.LimitReader(resp.Body, n), c: resp.Body}
}

type truncatedBody struct {
	r io.Reader
	c io.Closer
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // a torn connection, not a clean end
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.c.Close() }
