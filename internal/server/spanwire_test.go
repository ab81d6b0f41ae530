package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/exp"
	"dyflow/internal/server/fleet"
)

var updateSpanWire = flag.Bool("update-spanwire", false, "rewrite the span wire goldens in testdata/spanwire")

// spanWireGolden compares got with the committed testdata/spanwire/name,
// or — run with -update-spanwire — records got as it.
func spanWireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "spanwire", name)
	if *updateSpanWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from testdata:\n%s\nwant\n%s", name, got, want)
	}
}

// bodyRecorder is an http.RoundTripper that keeps each request body it
// sends, by URL path.
type bodyRecorder struct {
	mu     sync.Mutex
	bodies map[string][]byte
}

func (b *bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		data, err := io.ReadAll(req.Body)
		req.Body.Close() // a RoundTripper closes the body it was handed
		if err != nil {
			return nil, err
		}
		b.mu.Lock()
		b.bodies[req.URL.Path] = data
		b.mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(data))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// The spans a worker forwards: a completed one, one Arbitration dropped,
// one numbered 0 and one whose ID is not the one its fields and number
// format to. Written with their keys out of the wire's order, so the
// goldens show the encoding, not this text.
const (
	heartbeatSpans = `[
		{"executed_at": 9000, "planned_at": 8000, "received_at": 7000, "decided_at": 6000, "observed_at": 5000,
		 "generated_at": 4000, "sensor": "PACE", "action": "ADDCPU", "policy": "INC_ON_PACE", "workflow": "GS", "id": "GS/INC_ON_PACE#3"},
		{"dropped": "stale", "received_at": 7500, "decided_at": 6500, "observed_at": 5500, "generated_at": 4500,
		 "action": "RMCPU", "policy": "DEC_ON_PACE", "workflow": "GS", "id": "GS/DEC_ON_PACE#4"}
	]`
	resultSpans = `[
		{"decided_at": 1, "action": "STOP", "policy": "P", "workflow": "W", "id": ""},
		{"executed_at": 12, "decided_at": 10, "generated_at": 8, "action": "<&>", "policy": "P", "workflow": "W", "id": "sugg-7"}
	]`
)

// TestSpanWireGolden pins the bytes a flight-recorder span takes on its
// way out of the service, against files in testdata/spanwire: the
// heartbeat and result bodies a worker sends over HTTP with spans in them,
// the span frames of the run's SSE stream the coordinator serves from
// them (event IDs' epoch and timestamps masked), and the JSON report
// `dyflow-exp -trace-json` writes.
func TestSpanWireGolden(t *testing.T) {
	ctx := context.Background()
	s := newCoordinator(t, Config{})
	rec := &bodyRecorder{bodies: map[string][]byte{}}
	addr := listen(t, s)
	c := fleet.Dial(fleet.WorkerOptions{Coordinator: addr, Client: &http.Client{Transport: rec}})

	st, err := s.Submit("alice", quick(90))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Register(ctx, fleet.RegisterRequest{Name: "by-hand", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	claim, ok, err := c.Claim(ctx, reg.WorkerID, 10*time.Second)
	if err != nil || !ok || claim.RunID != st.ID {
		t.Fatalf("claim: %v %v %+v", err, ok, claim)
	}

	hb := fleet.HeartbeatRequest{RunID: claim.RunID, LeaseID: claim.LeaseID, SimNs: int64(time.Minute)}
	if err := json.Unmarshal([]byte(heartbeatSpans), &hb.Spans); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Heartbeat(ctx, reg.WorkerID, hb); err != nil || !resp.Valid {
		t.Fatalf("heartbeat: %v %+v", err, resp)
	}
	res := fleet.ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID, Converged: true, SimEndNs: int64(time.Hour)}
	if err := json.Unmarshal([]byte(resultSpans), &res.Spans); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Result(ctx, reg.WorkerID, res); err != nil || !resp.Accepted {
		t.Fatalf("result: %v %+v", err, resp)
	}
	spanWireGolden(t, "heartbeat.json", rec.bodies["/v1/workers/"+reg.WorkerID+"/heartbeat"])
	spanWireGolden(t, "result.json", rec.bodies["/v1/workers/"+reg.WorkerID+"/result"])

	resp, err := http.Get("http://" + addr + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	epoch := regexp.MustCompile(`(?m)^id: \d+\.`)
	at := regexp.MustCompile(`"at":"[^"]*"`)
	var frames bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Split(splitFrames)
	for sc.Scan() {
		if frame := sc.Text(); strings.Contains(frame, "\nevent: span\n") {
			frame = epoch.ReplaceAllString(frame, "id: EPOCH.")
			frames.WriteString(at.ReplaceAllString(frame, `"at":"AT"`))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	spanWireGolden(t, "events.sse", frames.Bytes())

	gs, err := exp.RunGrayScott(1, apps.Summit, true)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.W.Close()
	data, err := json.MarshalIndent(gs.W.Orch.Trace.Report(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	spanWireGolden(t, "report.json", append(data, '\n'))
}

// splitFrames is a bufio.SplitFunc that yields SSE frames, each with its
// blank-line terminator.
func splitFrames(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.Index(data, []byte("\n\n")); i >= 0 {
		return i + 2, data[:i+2], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}
