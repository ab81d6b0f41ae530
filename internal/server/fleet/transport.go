package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
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
	// PutBlobs stores each blob's Data under its Digest, in one request
	// over HTTP. It sets Kept on each blob whose Data the coordinator took
	// itself over (BlobStore.PutAs), so the caller must not write it
	// again, and never clears it; nothing holds the Data of any other
	// blob once PutBlobs returns. Over HTTP nothing is kept.
	PutBlobs(ctx context.Context, blobs []Blob) error
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
// With no o.Client it builds one on a clone of http.DefaultTransport whose
// connections copy request bodies through a buffer each keeps (copyConn).
func Dial(o WorkerOptions) Coordinator {
	c := &httpCoordinator{base: "http://" + o.Coordinator, client: o.Client, callTimeout: o.CallTimeout}
	if c.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		dial := tr.DialContext
		if dial == nil {
			dial = (&net.Dialer{}).DialContext
		}
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dial(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return newCopyConn(conn), nil
		}
		c.client = &http.Client{Timeout: 30 * time.Second, Transport: tr}
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

// PutBlobs sends the batch as one PUT /v1/blobs/ whose body is the
// blobs' frames (wire.go), written from a header per blob and the blob's
// own bytes. It returns only once the transport has closed every body it
// was handed: net/http may go on reading a request body after Do returns
// (a reply that came before the upload was all sent), and the caller
// writes the blobs again once PutBlobs returns. do's deadline is over by
// then, so a body still being sent is cut short, not waited out.
func (c *httpCoordinator) PutBlobs(ctx context.Context, blobs []Blob) error {
	if len(blobs) == 0 {
		return nil
	}
	heads := make([]byte, 0, len(blobs)*FrameHeaderLen)
	bodies := closeWait{segs: make(net.Buffers, 0, 2*len(blobs))}
	for i := range blobs {
		start := len(heads)
		heads = AppendFrameHeader(heads, blobs[i].Digest, len(blobs[i].Data))
		bodies.segs = append(bodies.segs, heads[start:], blobs[i].Data)
		bodies.size += int64(FrameHeaderLen + len(blobs[i].Data))
	}
	_, _, err := c.do(ctx, http.MethodPut, "/v1/blobs/", "application/octet-stream", nil, c.callTimeout, &bodies)
	bodies.wait()
	return err
}

// post sends one JSON request and decodes the JSON reply into out.
func (c *httpCoordinator) post(ctx context.Context, path string, body, out any, timeout time.Duration) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	code, raw, err := c.do(ctx, http.MethodPost, path, "application/json", data, timeout, nil)
	if err != nil || code == http.StatusNoContent || out == nil || len(raw) == 0 {
		return code, err
	}
	return code, json.Unmarshal(raw, out)
}

// do is one exchange under a per-call deadline. A reply shorter than its
// Content-Length — a torn connection, faultnet truncation — surfaces as an
// unexpected-EOF read error, transient like any transport error and any
// 5xx; a 3xx/4xx is the coordinator's answer. When bodies is not nil, the
// request body is its segments instead of body, and every body handed to
// the transport is counted in it.
func (c *httpCoordinator) do(ctx context.Context, method, path, contentType string, body []byte, timeout time.Duration, bodies *closeWait) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if bodies != nil {
		// GetBody stays, so the transport can resend on a fresh
		// connection; each body it takes is one more to wait for.
		req.ContentLength = bodies.size
		req.Body = bodies.add()
		req.GetBody = func() (io.ReadCloser, error) { return bodies.add(), nil }
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

// closeWait counts the request bodies a transport was handed over one
// set of segments, so their owner can wait until the transport has closed
// them all. Bodies are added only on the goroutine that calls Do (the
// request's own and its GetBody's, which the transport calls before Do
// returns), so the list needs no lock.
type closeWait struct {
	segs   net.Buffers // the body, sent from these slices as they are
	size   int64       // their total length
	bodies []*sentBody
}

// add returns a fresh body over the segments and counts it.
func (cw *closeWait) add() io.ReadCloser {
	// Reading a net.Buffers consumes its slice headers, so each body
	// reads its own copy of them.
	b := &sentBody{r: slices.Clone(cw.segs), closed: make(chan struct{})}
	cw.bodies = append(cw.bodies, b)
	return b
}

// wait blocks until every counted body has been closed.
func (cw *closeWait) wait() {
	for _, b := range cw.bodies {
		<-b.closed
	}
}

// sentBody is a request body that marks when the transport closed it.
type sentBody struct {
	r      net.Buffers
	once   sync.Once
	closed chan struct{}
}

func (b *sentBody) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *sentBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// copyBufSize is the buffer io.Copy would allocate for each body.
const copyBufSize = 32 << 10

// copyConn is a client connection that copies what the transport streams
// into it through one buffer it keeps. net/http writes a request body
// longer than its 4 KiB write buffer with io.Copy from an io.LimitedReader,
// which has no WriteTo; a TCP connection's ReadFrom then allocates a copy
// buffer of up to 32 KiB for every such request. The transport writes to a
// connection from one goroutine at a time, so the buffer needs no lock.
type copyConn struct {
	net.Conn
	w   io.Writer // Conn without its ReadFrom, so io.CopyBuffer uses buf
	buf []byte
}

func newCopyConn(c net.Conn) *copyConn {
	return &copyConn{Conn: c, w: struct{ io.Writer }{c}}
}

func (c *copyConn) ReadFrom(r io.Reader) (int64, error) {
	if c.buf == nil {
		c.buf = make([]byte, copyBufSize)
	}
	return io.CopyBuffer(c.w, r, c.buf)
}
