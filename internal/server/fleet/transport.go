package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dyflow/internal/obs"
)

// Coordinator is the worker API as a Worker calls it: one method per call
// of wire.go's table. It has two implementations. *server.Server is one
// itself, for the worker that shares the coordinator's process
// (`-workers N`): plain method calls on the wire types — nothing encoded,
// no deadline, nothing that can fail in transit. httpCoordinator below is
// the other, for a worker that joined over the network (JoinFleet): the
// same calls as requests to the /v1/workers/* and /v1/blobs/* routes, each
// under a per-call deadline. The Worker does not know which one it holds;
// how long a failed call is worth repeating is its business (Worker.retry),
// since only it knows how long its lease has left.
//
// ctx is the worker's own: canceled when it is killed or has stopped.
type Coordinator interface {
	Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	// Claim leases the worker one queued run, waiting up to wait for one to
	// be enqueued; ok=false means none was.
	Claim(ctx context.Context, workerID string, wait time.Duration) (claim ClaimResponse, ok bool, err error)
	Heartbeat(ctx context.Context, workerID string, req HeartbeatRequest) (HeartbeatResponse, error)
	HasBlob(ctx context.Context, digest string) bool
	PutBlob(ctx context.Context, digest string, data []byte) error
	Result(ctx context.Context, workerID string, req ResultRequest) (ResultResponse, error)
	PushMetrics(ctx context.Context, workerID string, snap obs.Snapshot) error
}

// heartbeatEvery is the cadence a registration asks for: HeartbeatMs, a
// third of the TTL when the coordinator named none, a second at worst.
func heartbeatEvery(reg RegisterResponse) time.Duration {
	for _, ms := range []int64{reg.HeartbeatMs, reg.LeaseTTLMs / 3} {
		if ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return time.Second
}

// answered marks a failure the coordinator chose — a 3xx or 4xx reply —
// as opposed to one the network made (transport error, 5xx, torn body):
// repeating the call would only be told the same again.
type answered struct{ error }

// httpCoordinator is the Coordinator of a worker on the far side of a
// network (see internal/server/faultnet for how hostile a one): every call
// is one HTTP exchange bounded by callTimeout, a heartbeat by the tighter
// hbTimeout, a claim by its long-poll window on top.
type httpCoordinator struct {
	base        string
	client      *http.Client
	callTimeout time.Duration
	hbTimeout   time.Duration // set by Register, from the cadence it is told
}

// Dial returns the Coordinator at o.Coordinator as a JoinFleet worker calls
// it (o.Client and o.CallTimeout apply); nothing is sent until a call is.
func Dial(o WorkerOptions) Coordinator {
	c := &httpCoordinator{base: "http://" + o.Coordinator, client: o.Client, callTimeout: o.CallTimeout}
	if c.client == nil {
		c.client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.callTimeout <= 0 {
		c.callTimeout = 10 * time.Second
	}
	return c
}

func (c *httpCoordinator) Register(ctx context.Context, req RegisterRequest) (reg RegisterResponse, err error) {
	if _, err = c.post(ctx, "/v1/workers/register", req, &reg, c.callTimeout); err != nil {
		return reg, err
	}
	// A heartbeat that blocks past its own cadence is as good as lost: bound
	// it so a hung coordinator cannot stall the progress hook into lease loss.
	c.hbTimeout = min(max(heartbeatEvery(reg), 50*time.Millisecond), c.callTimeout)
	return reg, nil
}

// Claim's deadline covers the long-poll window plus the normal call budget.
func (c *httpCoordinator) Claim(ctx context.Context, workerID string, wait time.Duration) (claim ClaimResponse, ok bool, err error) {
	code, err := c.post(ctx, "/v1/workers/"+workerID+"/claim",
		ClaimRequest{WaitMs: wait.Milliseconds()}, &claim, wait+c.callTimeout)
	return claim, err == nil && code != http.StatusNoContent, err
}

func (c *httpCoordinator) Heartbeat(ctx context.Context, workerID string, req HeartbeatRequest) (hb HeartbeatResponse, err error) {
	_, err = c.post(ctx, "/v1/workers/"+workerID+"/heartbeat", req, &hb, c.hbTimeout)
	return hb, err
}

func (c *httpCoordinator) Result(ctx context.Context, workerID string, req ResultRequest) (res ResultResponse, err error) {
	_, err = c.post(ctx, "/v1/workers/"+workerID+"/result", req, &res, c.callTimeout)
	return res, err
}

func (c *httpCoordinator) PushMetrics(ctx context.Context, workerID string, snap obs.Snapshot) error {
	_, err := c.post(ctx, "/v1/workers/"+workerID+"/metrics", snap, nil, c.callTimeout)
	return err
}

func (c *httpCoordinator) HasBlob(ctx context.Context, digest string) bool {
	code, _, err := c.do(ctx, http.MethodHead, "/v1/blobs/"+digest, "", nil, c.callTimeout)
	return err == nil && code == http.StatusOK
}

func (c *httpCoordinator) PutBlob(ctx context.Context, digest string, data []byte) error {
	_, _, err := c.do(ctx, http.MethodPut, "/v1/blobs/"+digest, "application/octet-stream", data, c.callTimeout)
	return err
}

// post sends one JSON request and decodes the JSON reply into out.
func (c *httpCoordinator) post(ctx context.Context, path string, body, out any, timeout time.Duration) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	code, raw, err := c.do(ctx, http.MethodPost, path, "application/json", data, timeout)
	if err != nil || code == http.StatusNoContent || out == nil || len(raw) == 0 {
		return code, err
	}
	return code, json.Unmarshal(raw, out)
}

// do is one exchange under a per-call deadline. A reply shorter than its
// Content-Length — a torn connection, faultnet truncation — surfaces as an
// unexpected-EOF read error, transient like any transport error and any
// 5xx; a 3xx/4xx is the coordinator's answer.
func (c *httpCoordinator) do(ctx context.Context, method, path, contentType string, body []byte, timeout time.Duration) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode >= 300 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
		if resp.StatusCode < 500 {
			err = answered{err}
		}
	}
	return resp.StatusCode, raw, err
}
