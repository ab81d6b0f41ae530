package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
	"dyflow/internal/server/fleet"
)

// batchBody is the body of PUT /v1/blobs/ for blobs, in their order.
func batchBody(blobs ...[]byte) []byte {
	var body []byte
	for _, b := range blobs {
		body = append(fleet.AppendFrameHeader(body, fleet.Digest(b), len(b)), b...)
	}
	return body
}

// putBatch sends body to h as PUT /v1/blobs/ declaring length bytes (-1
// is none), answering the recorder.
func putBatch(h http.Handler, body io.Reader, length int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPut, "/v1/blobs/", body)
	req.ContentLength = length
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// goldenBlobs are the two blobs of testdata/blobwire/batch.golden, which
// was written with printf and sha256sum, not with this package: each
// frame is the blob's sha256 as 64 hex characters, its length as 8 bytes
// big-endian, then its bytes.
var goldenBlobs = [][]byte{[]byte("first artifact\n"), []byte("the second artifact of the batch\n")}

// bodyCapture is a RoundTripper that keeps the body of every batch upload
// it forwards.
type bodyCapture struct {
	mu     sync.Mutex
	bodies [][]byte
	next   http.RoundTripper
}

func (c *bodyCapture) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPut && r.URL.Path == "/v1/blobs/" {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.bodies = append(c.bodies, body)
		c.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return c.next.RoundTrip(r)
}

// TestBlobBatchWireGolden pins the bytes of a batch upload on both sides:
// the body a worker's httpCoordinator.PutBlobs sends for two blobs is the
// golden file, and the coordinator's handleBlobsPut stores both blobs of
// the golden file. A change to either side's framing fails here, before
// a worker and a coordinator of different commits disagree.
func TestBlobBatchWireGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "blobwire", "batch.golden"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("worker", func(t *testing.T) {
		s, addr := startFleetCoordinator(t, 10*time.Second)
		capture := &bodyCapture{next: http.DefaultTransport}
		c := fleet.Dial(fleet.WorkerOptions{Coordinator: addr, Client: &http.Client{Transport: capture}})
		blobs := make([]fleet.Blob, len(goldenBlobs))
		for i, b := range goldenBlobs {
			blobs[i] = fleet.Blob{Digest: fleet.Digest(b), Data: b}
		}
		if err := c.PutBlobs(context.Background(), blobs); err != nil {
			t.Fatal(err)
		}
		if len(capture.bodies) != 1 || !bytes.Equal(capture.bodies[0], golden) {
			t.Fatalf("PutBlobs sent %d bodies, the first %q; want one, the golden %q", len(capture.bodies), capture.bodies, golden)
		}
		for _, b := range goldenBlobs {
			if got, ok := s.blobs.Get(fleet.Digest(b)); !ok || !bytes.Equal(got, b) {
				t.Errorf("blob %q stored as %q (%v)", b, got, ok)
			}
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if rec := putBatch(s.Handler(), bytes.NewReader(golden), int64(len(golden))); rec.Code != http.StatusCreated {
			t.Fatalf("the golden batch answered %d: %s", rec.Code, rec.Body)
		}
		for _, b := range goldenBlobs {
			if got, ok := s.blobs.Get(fleet.Digest(b)); !ok || !bytes.Equal(got, b) || cap(got) != len(b) {
				t.Errorf("blob %q stored as %q at cap %d (%v)", b, got, cap(got), ok)
			}
		}
		if got := counter(t, s, "dyflow_server_fleet_blobs"); got != 2 {
			t.Errorf("dyflow_server_fleet_blobs = %v, want 2", got)
		}
	})
}

// TestBlobBatch_Answers: every answer of PUT /v1/blobs/ through Handler().
// No Content-Length (411) and a length over maxBlobBytes (413) read no
// body byte; a frame that is wrong in any way is a 400, and the frames
// before it stay stored, as a per-blob upload's do.
func TestBlobBatch_Answers(t *testing.T) {
	first, second := []byte("the batch's first blob"), []byte("and its second")
	good := batchBody(first, second)
	badDigest := append(fleet.AppendFrameHeader(nil, strings.Repeat("G", 64), len(second)), second...)
	mismatch := append(fleet.AppendFrameHeader(nil, fleet.Digest(first), len(second)), second...)
	tooLong := append(fleet.AppendFrameHeader(nil, fleet.Digest(second), len(second)+1), second...)
	for _, tc := range []struct {
		name   string
		body   []byte
		length int64 // the declared Content-Length; -1 is none
		want   int
		stored int  // blobs the upload adds
		reads  bool // the handler reads the body
	}{
		{"created", good, int64(len(good)), http.StatusCreated, 2, true},
		{"empty", nil, 0, http.StatusCreated, 0, false},
		{"no length", good, -1, http.StatusLengthRequired, 0, false},
		{"too long", good, maxBlobBytes + 1, http.StatusRequestEntityTooLarge, 0, false},
		{"bad digest", append(batchBody(first), badDigest...), int64(len(batchBody(first)) + len(badDigest)), http.StatusBadRequest, 1, true},
		{"digest mismatch", append(batchBody(first), mismatch...), int64(len(batchBody(first)) + len(mismatch)), http.StatusBadRequest, 1, true},
		{"frame longer than the body", append(batchBody(first), tooLong...), int64(len(batchBody(first)) + len(tooLong)), http.StatusBadRequest, 1, true},
		{"short header", good[:fleet.FrameHeaderLen-1], fleet.FrameHeaderLen - 1, http.StatusBadRequest, 0, false},
		{"short body", good[:len(good)-1], int64(len(good)), http.StatusBadRequest, 1, true},
		{"declares the most", good[:len(good)-1], maxBlobBytes, http.StatusBadRequest, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			body := &readCounter{r: bytes.NewReader(tc.body)}
			before := heapAllocated()
			rec := putBatch(s.Handler(), body, tc.length)
			if alloc := heapAllocated() - before; alloc > 8*blobReadStep {
				t.Errorf("the answer allocated %d bytes, want at most %d", alloc, 8*blobReadStep)
			}
			if rec.Code != tc.want {
				t.Fatalf("answered %d (%s), want %d", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.want)
			}
			if read := body.n > 0; read != tc.reads {
				t.Errorf("read %d body bytes, want reads=%v", body.n, tc.reads)
			}
			if got := counter(t, s, "dyflow_server_fleet_blobs"); got != float64(tc.stored) {
				t.Errorf("dyflow_server_fleet_blobs = %v, want %d", got, tc.stored)
			}
			for _, b := range [][]byte{first, second}[:tc.stored] {
				if got, ok := s.blobs.Get(fleet.Digest(b)); !ok || !bytes.Equal(got, b) {
					t.Errorf("blob %q stored as %q (%v)", b, got, ok)
				}
			}
		})
	}
}

// TestBlobBatch_AllocatesItsBytesOnce: a batch of one grayscott job's
// four artifacts, the upload of every fleet-durable run, allocates its
// artifacts' bytes once on the coordinator and next to nothing besides:
// each frame is read into one buffer of its length, which the store
// keeps. "Once" is what one make of each artifact's length costs, measured
// here: the allocator rounds a length up to its size class, or to whole
// 8 KiB pages past 32 KiB, so the Perfetto artifact's 59 029 bytes take
// 65 536 and the four artifacts' 74 343 take ≈ 81 KB. Allocation counts
// mean nothing under the race detector or coverage, so the test skips
// there.
func TestBlobBatch_AllocatesItsBytesOnce(t *testing.T) {
	if raceDetector || testing.CoverMode() != "" {
		t.Skip("allocation counts are not comparable under -race or -cover")
	}
	out, err := exp.RunJob(exp.Job{Scenario: exp.ScenarioGrayScott, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	if rec := putBatch(h, bytes.NewReader(batchBody(goldenBlobs...)), int64(len(batchBody(goldenBlobs...)))); rec.Code != http.StatusCreated {
		t.Fatalf("warm-up batch answered %d: %s", rec.Code, rec.Body)
	}

	// The least of three rounds is the batch's own: another goroutine of
	// the test process can only add to a round's count. Each round's
	// artifacts differ in their first byte, so each is stored anew.
	arts := make([][]byte, 0, len(out.Artifacts))
	once, per := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		arts = arts[:0]
		for _, data := range out.Artifacts {
			data = bytes.Clone(data)
			data[0] ^= byte(round + 1)
			arts = append(arts, data)
		}
		before := heapAllocated()
		for _, data := range arts {
			sink = make([]byte, len(data))
		}
		once = min(once, float64(heapAllocated()-before))

		body := batchBody(arts...)
		req := httptest.NewRequest(http.MethodPut, "/v1/blobs/", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		before = heapAllocated()
		h.ServeHTTP(rec, req)
		per = min(per, float64(heapAllocated()-before))
		if rec.Code != http.StatusCreated {
			t.Fatalf("round %d answered %d: %s", round, rec.Code, rec.Body)
		}
		for _, data := range arts {
			if got, ok := s.blobs.Get(fleet.Digest(data)); !ok || !bytes.Equal(got, data) || cap(got) != len(got) {
				t.Fatalf("round %d: a %d-byte artifact stored with len %d cap %d (%v)", round, len(data), len(got), cap(got), ok)
			}
		}
	}
	t.Logf("a batch of %d artifacts allocates %.0f bytes, %.3f× the %.0f one make of each costs", len(arts), per, per/once, once)
	if limit := 1.05 * once; per > limit {
		t.Errorf("the batch allocated %.0f bytes, %.3f× the %.0f its artifacts cost once; want at most %.0f", per, per/once, once, limit)
	}
}

// sink keeps a measured allocation from being optimized away.
var sink []byte

// TestPutBlobs_KeepsOnlyExactMisses is TestPutAs_KeepsOnlyExactMisses
// from the worker's side: the in-process PutBlobs sets Kept on exactly
// the blobs the store took over (a miss with no spare capacity), never
// clears it, stops at a refusal with the blobs before it stored, and
// allocates nothing for a batch the store already holds, which it skips
// unhashed.
func TestPutBlobs_KeepsOnlyExactMisses(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	exact := []byte("an exactly sized artifact")
	exact = exact[:len(exact):len(exact)]
	spare := append(make([]byte, 0, 64), "an artifact with room to spare"...)
	blobs := []fleet.Blob{
		{Name: "exact", Digest: fleet.Digest(exact), Data: exact},
		{Name: "spare", Digest: fleet.Digest(spare), Data: spare},
	}
	if err := s.PutBlobs(ctx, blobs); err != nil {
		t.Fatal(err)
	}
	if !blobs[0].Kept || blobs[1].Kept {
		t.Fatalf("kept %v %v, want the exact miss kept and the spare one copied", blobs[0].Kept, blobs[1].Kept)
	}
	if got, _ := s.blobs.Get(blobs[0].Digest); &got[0] != &exact[0] {
		t.Fatal("the store copied a slice PutBlobs reported kept")
	}
	if got, _ := s.blobs.Get(blobs[1].Digest); &got[0] == &spare[0] {
		t.Fatal("the store aliases a slice PutBlobs reported not kept")
	}

	// The same batch again is skipped: Kept stays as the first upload left
	// it, and nothing is allocated.
	if err := s.PutBlobs(ctx, blobs); err != nil || !blobs[0].Kept || blobs[1].Kept {
		t.Fatalf("a repeated batch: %v, kept %v %v; want no error and Kept unchanged", err, blobs[0].Kept, blobs[1].Kept)
	}
	if !raceDetector && testing.CoverMode() == "" {
		if n := testing.AllocsPerRun(20, func() { s.PutBlobs(ctx, blobs) }); n != 0 {
			t.Errorf("a batch of dedups allocates %v objects, want 0", n)
		}
	}

	fresh := []byte("stored before the refusal")
	after := []byte("never reached")
	refused := []fleet.Blob{
		{Digest: fleet.Digest(fresh), Data: fresh},
		{Digest: fleet.Digest(after), Data: []byte("tampered")},
		{Digest: fleet.Digest(after), Data: after},
	}
	var apiErr *APIError
	if err := s.PutBlobs(ctx, refused); !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest || refused[1].Kept {
		t.Fatalf("a mismatch: %v, kept %v; want a 400 and nothing kept", err, refused[1].Kept)
	}
	if !s.blobs.Has(fleet.Digest(fresh)) || s.blobs.Has(fleet.Digest(after)) {
		t.Fatal("a refusal must keep the blobs before it and store none after it")
	}
}

// FuzzBlobBatch feeds PUT /v1/blobs/ arbitrary bodies under arbitrary
// declared lengths. The handler must not panic, must store nothing that
// does not hash to its frame's digest, and must allocate per frame no
// more than readDeclared's bound: the first read step of the frame's
// length, then at most four times the bytes that arrived.
func FuzzBlobBatch(f *testing.F) {
	first, second := []byte("first"), []byte("second blob")
	good := batchBody(first, second)
	f.Add(good, int64(len(good)))
	f.Add(good, int64(len(good)-3))
	f.Add(good, int64(len(good)+40))
	f.Add(good[:fleet.FrameHeaderLen+2], int64(maxBlobBytes))
	f.Add(append(fleet.AppendFrameHeader(nil, fleet.Digest(first), len(second)), second...), int64(fleet.FrameHeaderLen+len(second)))
	f.Add(fleet.AppendFrameHeader(nil, fleet.Digest(first), 1<<40), int64(fleet.FrameHeaderLen+8))
	f.Add(append(fleet.AppendFrameHeader(nil, fleet.Digest(first), 64<<20), first...), int64(maxBlobBytes))
	f.Add([]byte(nil), int64(-1))
	f.Add(batchBody(first, first), int64(len(batchBody(first, first))))
	f.Fuzz(func(t *testing.T, body []byte, declared int64) {
		reg := obs.NewRegistry()
		store, err := fleet.NewBlobStore("", reg)
		if err != nil {
			t.Fatal(err)
		}
		s := &Server{blobs: store}
		var r io.Reader = bytes.NewReader(body)
		if declared >= 0 {
			r = io.LimitReader(r, declared) // as net/http bounds a request body
		}
		req := httptest.NewRequest(http.MethodPut, "/v1/blobs/", r)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		before := heapAllocated()
		s.handleBlobsPut(rec, req)
		alloc := heapAllocated() - before

		// Walk the frames as the handler reads them.
		digests := map[string]bool{}
		var bound uint64 = 64 << 10 // the request's own: header buffer, digests, the answer
		if declared >= 0 && declared <= maxBlobBytes {
			left, rest := declared, body[:min(int64(len(body)), declared)]
			for left >= fleet.FrameHeaderLen && len(rest) >= fleet.FrameHeaderLen {
				digest, n, ok := fleet.ParseFrameHeader(rest[:fleet.FrameHeaderLen])
				left, rest = left-fleet.FrameHeaderLen, rest[fleet.FrameHeaderLen:]
				if !ok || n > uint64(left) {
					break
				}
				arrived := min(n, uint64(len(rest)))
				bound += min(n, blobReadStep) + 4*arrived
				digests[digest] = true
				left, rest = left-int64(n), rest[arrived:]
			}
		}
		stored := 0
		for d := range digests {
			if data, ok := store.Get(d); ok {
				stored++
				if fleet.Digest(data) != d {
					t.Fatalf("stored %d bytes under %s that hash to %s", len(data), d, fleet.Digest(data))
				}
			}
		}
		if n, _ := reg.Value("dyflow_server_fleet_blobs"); int(n) != stored {
			t.Fatalf("the store holds %v blobs, %d of them under a frame's digest", n, stored)
		}
		if rec.Code == http.StatusCreated && stored != len(digests) {
			t.Fatalf("answered 201 having stored %d of %d frame digests", stored, len(digests))
		}
		if !raceDetector && testing.CoverMode() == "" && alloc > bound {
			t.Fatalf("a %d-byte body declaring %d allocated %d bytes, over the bound %d", len(body), declared, alloc, bound)
		}
	})
}

// TestOldWorkerProtocolStillServed is a worker from before the batch,
// rolled by hand over HTTP against this coordinator: register, claim,
// then per artifact a HEAD probe and, for a digest the coordinator lacks,
// PUT /v1/blobs/{digest}, then the result. Its run must end done, with
// every artifact served byte for byte as the worker uploaded it.
func TestOldWorkerProtocolStillServed(t *testing.T) {
	s, addr := startFleetCoordinator(t, 10*time.Second)
	st, err := s.Submit("alice", quick(303))
	if err != nil {
		t.Fatal(err)
	}
	var reg fleet.RegisterResponse
	if code := postFleetJSON(t, addr, "/v1/workers/register", fleet.RegisterRequest{Name: "old", Slots: 1}, &reg); code != http.StatusOK {
		t.Fatalf("register: %d", code)
	}
	var claim fleet.ClaimResponse
	if code := postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/claim",
		fleet.ClaimRequest{WaitMs: 10000}, &claim); code != http.StatusOK || claim.RunID != st.ID {
		t.Fatalf("claim: %d %+v, want run %s", code, claim, st.ID)
	}
	out, err := exp.RunJob(claim.Job, nil)
	if err != nil {
		t.Fatal(err)
	}

	blobURL := "http://" + addr + "/v1/blobs/"
	send := func(method, url string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	refs := map[string]string{}
	for name, data := range out.Artifacts {
		digest := fleet.Digest(data)
		refs[name] = digest
		if code := send(http.MethodHead, blobURL+digest, nil); code == http.StatusOK {
			continue
		} else if code != http.StatusNotFound {
			t.Fatalf("HEAD %s (%s) answered %d", digest, name, code)
		}
		if code := send(http.MethodPut, blobURL+digest, data); code != http.StatusCreated {
			t.Fatalf("PUT %s (%s) answered %d, want 201", digest, name, code)
		}
		if code := send(http.MethodHead, blobURL+digest, nil); code != http.StatusOK {
			t.Fatalf("HEAD %s (%s) after its PUT answered %d, want 200", digest, name, code)
		}
	}
	var res fleet.ResultResponse
	if code := postFleetJSON(t, addr, "/v1/workers/"+reg.WorkerID+"/result", fleet.ResultRequest{RunID: st.ID, LeaseID: claim.LeaseID,
		Converged: out.Converged, SimEndNs: int64(out.SimEnd), Artifacts: refs}, &res); code != http.StatusOK || !res.Accepted {
		t.Fatalf("result: %d %+v", code, res)
	}
	if final := await(t, s, st.ID); final.State != StateDone {
		t.Fatalf("the old worker's run ended %s: %s", final.State, final.Error)
	}
	for name, data := range out.Artifacts {
		resp, err := http.Get("http://" + addr + "/v1/runs/" + st.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, data) {
			t.Fatalf("artifact %s answered %d with %d bytes (%v), want the %d uploaded", name, resp.StatusCode, len(got), err, len(data))
		}
	}
}

// rpcCounter is a RoundTripper that counts a worker's requests by what
// they are.
type rpcCounter struct {
	mu     sync.Mutex
	counts map[string]int
	next   http.RoundTripper
}

func (c *rpcCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(r)
	kind := r.Method + " " + r.URL.Path
	switch {
	case strings.HasSuffix(r.URL.Path, "/claim") && err == nil && resp.StatusCode == http.StatusOK:
		kind = "claim"
	case strings.HasSuffix(r.URL.Path, "/claim"):
		kind = "empty claim"
	case strings.HasSuffix(r.URL.Path, "/result"):
		kind = "result"
	case strings.HasSuffix(r.URL.Path, "/heartbeat"), strings.HasSuffix(r.URL.Path, "/metrics"), strings.HasSuffix(r.URL.Path, "/register"):
		kind = "other"
	case r.URL.Path != "/v1/blobs/" && strings.HasPrefix(r.URL.Path, "/v1/blobs/"):
		kind = r.Method + " /v1/blobs/{digest}"
	}
	c.mu.Lock()
	c.counts[kind]++
	c.mu.Unlock()
	return resp, err
}

// TestJoinFleet_SendsOneBatchPerRun counts what a real JoinFleet worker
// sends for each run it executes: one granted claim, one PUT /v1/blobs/
// with all of the run's artifacts, one result, and no HEAD probe nor any
// per-digest PUT.
func TestJoinFleet_SendsOneBatchPerRun(t *testing.T) {
	s, addr := startFleetCoordinator(t, 10*time.Second)
	rpcs := &rpcCounter{counts: map[string]int{}, next: http.DefaultTransport}
	o := quickWorker()
	o.Coordinator, o.Client = addr, &http.Client{Transport: rpcs}
	w, err := fleet.JoinFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	for seed := int64(311); seed < 311+runs; seed++ {
		st, err := s.Submit("alice", quick(seed))
		if err != nil {
			t.Fatal(err)
		}
		if final := await(t, s, st.ID); final.State != StateDone {
			t.Fatalf("run %s ended %s: %s", st.ID, final.State, final.Error)
		}
	}
	w.Stop()

	rpcs.mu.Lock()
	defer rpcs.mu.Unlock()
	delete(rpcs.counts, "empty claim")
	delete(rpcs.counts, "other")
	want := map[string]int{"claim": runs, "PUT /v1/blobs/": runs, "result": runs}
	if len(rpcs.counts) != len(want) {
		t.Fatalf("the worker sent %v for %d runs, want %v", rpcs.counts, runs, want)
	}
	for kind, n := range want {
		if rpcs.counts[kind] != n {
			t.Fatalf("the worker sent %v for %d runs, want %v", rpcs.counts, runs, want)
		}
	}
}
