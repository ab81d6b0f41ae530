package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dyflow/internal/server/fleet"
)

// readCounter is an upload body that counts the bytes read from it.
type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestBlobPut_Answers: every answer of PUT /v1/blobs/{digest} through
// Handler(). A refusal that does not need the bytes (a digest that is no
// content address, no Content-Length, a length over maxBlobBytes) reads
// none of them; only a stored upload moves dyflow_server_fleet_blobs. No
// answer allocates anywhere near what a body declares: an upload that
// declares maxBlobBytes and sends a few bytes costs at most the first
// read step, not 128 MiB.
func TestBlobPut_Answers(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	blob := []byte("an artifact's bytes")
	for _, tc := range []struct {
		name   string
		digest string
		length int64 // the declared Content-Length; -1 is none
		want   int
		stored bool // the upload adds a blob
		reads  bool // the handler reads the body
	}{
		{"created", fleet.Digest(blob), int64(len(blob)), http.StatusCreated, true, true},
		{"wrong digest", fleet.Digest([]byte("other bytes")), int64(len(blob)), http.StatusBadRequest, false, true},
		{"malformed digest", fleet.Digest(blob)[:63], int64(len(blob)), http.StatusNotFound, false, false},
		{"no length", fleet.Digest(blob), -1, http.StatusLengthRequired, false, false},
		{"too long", fleet.Digest(blob), maxBlobBytes + 1, http.StatusRequestEntityTooLarge, false, false},
		{"short body", fleet.Digest(blob), int64(len(blob)) + 1, http.StatusBadRequest, false, true},
		{"declares the most", fleet.Digest(blob), maxBlobBytes, http.StatusBadRequest, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blobs := counter(t, s, "dyflow_server_fleet_blobs")
			body := &readCounter{r: bytes.NewReader(blob)}
			req := httptest.NewRequest(http.MethodPut, "/v1/blobs/"+tc.digest, body)
			req.ContentLength = tc.length
			rec := httptest.NewRecorder()
			before := heapAllocated()
			h.ServeHTTP(rec, req)
			// Far under maxBlobBytes, so leftover goroutines of other
			// tests cannot reach it.
			if alloc := heapAllocated() - before; alloc > 8*blobReadStep {
				t.Errorf("the answer allocated %d bytes, want at most %d", alloc, 8*blobReadStep)
			}
			if rec.Code != tc.want {
				t.Fatalf("answered %d (%s), want %d", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.want)
			}
			if read := body.n > 0; read != tc.reads {
				t.Errorf("read %d body bytes, want reads=%v", body.n, tc.reads)
			}
			want := blobs
			if tc.stored {
				want++
			}
			if got := counter(t, s, "dyflow_server_fleet_blobs"); got != want {
				t.Errorf("dyflow_server_fleet_blobs went from %v to %v, want %v", blobs, got, want)
			}
		})
	}
	if got, ok := s.blobs.Get(fleet.Digest(blob)); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("the stored blob reads back as %q (%v), want %q", got, ok, blob)
	}
}

// TestBlobPut_GrowsToItsLength: an upload longer than blobReadStep grows
// its buffer as its bytes arrive and is still stored at exactly its
// length, with no spare capacity.
func TestBlobPut_GrowsToItsLength(t *testing.T) {
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte("0123456789"), (5*blobReadStep/2)/10)
	digest := fleet.Digest(blob)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/blobs/"+digest, bytes.NewReader(blob)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT answered %d: %s", rec.Code, rec.Body)
	}
	got, ok := s.blobs.Get(digest)
	if !ok || !bytes.Equal(got, blob) || cap(got) != len(blob) {
		t.Fatalf("stored blob has len %d cap %d (found %v), want the %d uploaded bytes at cap %d", len(got), cap(got), ok, len(blob), len(blob))
	}
}

// blobSizes are the upload sizes the allocation test and BenchmarkBlobPut
// use: a small artifact, a typical one, and a large one.
var blobSizes = []struct {
	name string
	n    int
}{{"8KiB", 8 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}}

// TestBlobPut_AllocatesItsBytesOnce: an upload is read into one buffer of
// its declared length, and that buffer is what the store keeps. Read by
// growing a slice, as io.ReadAll does, a PUT allocated 4–5 times its size
// and left spare capacity in every stored blob. Allocation counts mean
// nothing under the race detector or coverage, so the test skips there.
func TestBlobPut_AllocatesItsBytesOnce(t *testing.T) {
	if raceDetector || testing.CoverMode() != "" {
		t.Skip("allocation counts are not comparable under -race or -cover")
	}
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	put := func(t *testing.T, req *http.Request) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s answered %d: %s", req.URL.Path, rec.Code, rec.Body)
		}
	}
	warm := []byte("warm-up")
	put(t, httptest.NewRequest(http.MethodPut, "/v1/blobs/"+fleet.Digest(warm), bytes.NewReader(warm)))

	// The least of three rounds is the PUTs' own: another goroutine of the
	// test process can only add to a round's count.
	const puts, rounds = 4, 3
	for _, size := range blobSizes {
		n := size.n
		t.Run(size.name, func(t *testing.T) {
			per := math.Inf(1)
			for round := 0; round < rounds; round++ {
				digests := make([]string, puts)
				reqs := make([]*http.Request, puts)
				for i := range reqs {
					blob := bytes.Repeat([]byte{byte(round), byte(i)}, n/2)
					digests[i] = fleet.Digest(blob)
					reqs[i] = httptest.NewRequest(http.MethodPut, "/v1/blobs/"+digests[i], bytes.NewReader(blob))
				}
				before := heapAllocated()
				for _, req := range reqs {
					put(t, req)
				}
				per = min(per, float64(heapAllocated()-before)/puts)
				for _, d := range digests {
					data, ok := s.blobs.Get(d)
					if !ok || len(data) != n || cap(data) != len(data) {
						t.Errorf("blob %s stored with len %d cap %d (found %v), want len and cap %d", d[:12], len(data), cap(data), ok, n)
					}
				}
			}
			t.Logf("%.0f bytes a PUT, %.2f× the blob", per, per/float64(n))
			if limit := 1.10*float64(n) + 4<<10; per > limit {
				t.Errorf("a %d-byte PUT allocated %.0f bytes (%.2f× its size), want under %.0f", n, per, per/float64(n), limit)
			}
		})
	}
}

// heapAllocated is the heap the process has allocated so far, in bytes.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
