package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyflow/internal/runstore"
)

// refRunPage is GET /v1/runs' body as the service encoded it before the
// page was written from the records: the RunPage of the records'
// recordStatus views through encoding/json.
func refRunPage(t testing.TB, metas []runstore.Meta, sims []int64, next string) []byte {
	t.Helper()
	page := RunPage{Runs: make([]Status, len(metas)), NextPageToken: next}
	for i := range metas {
		page.Runs[i] = recordStatus(&metas[i], sims[i])
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(page); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonPieces are the strings a drawn field is made of: plain text, what
// encoding/json escapes (HTML characters, control bytes, quote and
// backslash, U+2028 and U+2029) and invalid UTF-8.
var jsonPieces = []string{
	"run", "quickstart", "é", "😀", " ", "<", ">", "&", "\x00", "\x1f", "\x7f",
	"\t", "\n", "\r", "\b", "\f", `"`, `\`, "\u2028", "\u2029", "\xff", "\xe2\x80", "\xc3",
}

func drawString(rng *rand.Rand, pieces int) string {
	var b strings.Builder
	for n := rng.Intn(pieces + 1); n > 0; n-- {
		b.WriteString(jsonPieces[rng.Intn(len(jsonPieces))])
	}
	return b.String()
}

// drawStamp is a phase stamp: never happened, or any instant an int64 of
// nanoseconds holds.
func drawStamp(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return 0
	}
	return rng.Int63() - math.MaxInt64/2
}

// drawSimNs is a run's progress: zero, under a microsecond (the 'e' float
// format), or up to days ('f'), either sign.
func drawSimNs(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(2000) - 1000
	case 2:
		return rng.Int63n(1 << 50)
	}
	return rng.Int63() - math.MaxInt64/2
}

func drawMeta(rng *rand.Rand) runstore.Meta {
	m := runstore.Meta{
		ID: drawString(rng, 4), Tenant: drawString(rng, 4), Scenario: drawString(rng, 3),
		Machine: drawString(rng, 2), Seed: rng.Int63() - math.MaxInt64/2,
		Key: drawString(rng, 2), State: drawString(rng, 2),
		Cached: rng.Intn(2) == 0, Converged: rng.Intn(2) == 0,
		Error: drawString(rng, 4), Worker: drawString(rng, 2),
		SubmittedAtNs: drawStamp(rng), QueuedAtNs: drawStamp(rng), ClaimedAtNs: drawStamp(rng),
		StartedAtNs: drawStamp(rng), FinishedAtNs: drawStamp(rng), SimEndNs: drawSimNs(rng),
	}
	if rng.Intn(4) == 0 {
		m.XML = drawString(rng, 2000) // a long document
	} else {
		m.XML = drawString(rng, 3)
	}
	if n := rng.Intn(6); n > 0 {
		m.Artifacts = map[string]string{}
		for len(m.Artifacts) < n {
			m.Artifacts[drawString(rng, 3)] = drawString(rng, 2)
		}
	}
	return m
}

// TestProperty_RunPageJSON_EqualsEncodingJSON: a list page written from the
// records is byte for byte what encoding/json wrote for it. Written
// directly, over drawn records whose every string field holds what JSON
// escapes; and served by the handler, page by page over a history of such
// records, tokens included.
func TestProperty_RunPageJSON_EqualsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 300; trial++ {
		metas := make([]runstore.Meta, rng.Intn(6))
		sims := make([]int64, len(metas))
		for i := range metas {
			metas[i], sims[i] = drawMeta(rng), drawSimNs(rng)
		}
		next := ""
		if rng.Intn(2) == 0 {
			next = drawString(rng, 5)
		}
		want := refRunPage(t, metas, sims, next)
		if got := appendRunPage(nil, metas, sims, next); !bytes.Equal(got, want) {
			t.Fatalf("page %d:\n got %q\nwant %q", trial, got, want)
		}
	}

	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		m := drawMeta(rng)
		m.ID, m.Tombstone = fmt.Sprintf("run-%06d%s", i, m.ID), false
		if err := s.history.Append(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	for _, q := range []RunQuery{{Limit: 7}, {Limit: 1000}, {State: "\u2028", Limit: 3}, {Tenant: "no such tenant", Limit: 5}} {
		for pages := 0; ; pages++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, listTarget(q), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", listTarget(q), rec.Code, rec.Body)
			}
			page, err := s.history.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			sims := make([]int64, len(page.Items))
			for i := range page.Items {
				sims[i] = page.Items[i].SimEndNs
			}
			if want := refRunPage(t, page.Items, sims, page.NextPageToken); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("GET %s:\n got %q\nwant %q", listTarget(q), rec.Body, want)
			}
			if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
				t.Fatalf("GET %s: Content-Length %s for a %d-byte body", listTarget(q), got, rec.Body.Len())
			}
			if q.PageToken = page.NextPageToken; q.PageToken == "" {
				break
			}
		}
	}
}

// FuzzRunPageJSON: a two-run page built from the fuzzer's fields is
// written as encoding/json writes it.
func FuzzRunPageJSON(f *testing.F) {
	f.Add("run-000001", "alice", "<xml a=\"&\"/>", "boom\n", "local", int64(-3), int64(999), int64(1_700_000_000_000_000_000), "report\x00gantt", "")
	f.Add("\xff\u2028", "\x1f", "", "", "", int64(0), int64(0), int64(0), "", "MTIzfHJ1bg")
	f.Add("r", "t", strings.Repeat("<&>\u2029", 500), "\\\"", "w", int64(math.MinInt64), int64(math.MaxInt64), int64(-1), "a\x00b\x00c\x00d\x00e", "tok\xe2\x80")
	f.Fuzz(func(t *testing.T, id, tenant, xml, errMsg, worker string, seed, simNs, stamp int64, names, next string) {
		m := runstore.Meta{ID: id, Tenant: tenant, Scenario: tenant + id, Machine: worker, Seed: seed, XML: xml,
			State: errMsg, Error: errMsg, Worker: worker, Cached: seed%2 == 0, Converged: seed%3 == 0,
			SubmittedAtNs: stamp, QueuedAtNs: stamp ^ 1, StartedAtNs: -stamp, FinishedAtNs: stamp / 3, SimEndNs: simNs}
		if names != "" {
			m.Artifacts = map[string]string{}
			for _, name := range strings.SplitN(names, "\x00", 5) {
				m.Artifacts[name] = id
			}
		}
		bare := runstore.Meta{ID: xml, Tenant: id}
		metas, sims := []runstore.Meta{m, bare}, []int64{simNs, simNs / 1000}
		want := refRunPage(t, metas, sims, next)
		if got := appendRunPage(nil, metas, sims, next); !bytes.Equal(got, want) {
			t.Fatalf("\n got %q\nwant %q", got, want)
		}
	})
}

// TestRunList_AllocatesPerPage: a warm GET /v1/runs allocates the same
// whatever its limit — the page's records and body go into pooled buffers,
// and nothing is built per run. Built as Status values for encoding/json,
// a 100-run page cost 449 allocations (BenchmarkListPage). Allocation
// counts mean nothing under the race detector or coverage, so the test
// skips there.
func TestRunList_AllocatesPerPage(t *testing.T) {
	if raceDetector || testing.CoverMode() != "" {
		t.Skip("allocation counts are not comparable under -race or -cover")
	}
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const runs = 2500
	for i := 0; i < runs; i++ {
		m := runstore.Meta{ID: fmt.Sprintf("run-%06d", i), Tenant: fmt.Sprintf("tenant-%d", i%2),
			Scenario: "quickstart", Machine: "dt2", Seed: int64(i % 16), State: string(StateDone), Terminal: true,
			Worker: localWorkerID, SubmittedAtNs: 1_700_000_000_000_000_000 + int64(i), QueuedAtNs: 1_700_000_000_000_000_000 + int64(i),
			ClaimedAtNs: 1_700_000_000_100_000_000 + int64(i), StartedAtNs: 1_700_000_000_200_000_000 + int64(i),
			FinishedAtNs: 1_700_000_000_300_000_000 + int64(i), SimEndNs: 123_456_789_000,
			Artifacts: map[string]string{"report": "d1", "gantt": "d2", "perfetto": "d3", "metrics": "d4"}}
		if err := s.history.Append(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	// The least of three rounds is the request's own: another goroutine of
	// the test process can only add to a round's count. The request is
	// built outside the count, and the body goes to a writer that keeps
	// none of it (a recorder's buffer grows with the page). The largest
	// page goes first, so every later one finds the pool warm.
	allocs := map[int]float64{}
	for _, limit := range []int{1000, 10, 100, 1000} {
		target := fmt.Sprintf("/v1/runs?tenant=tenant-1&state=done&limit=%d", limit)
		per := math.Inf(1)
		for round := 0; round < 3; round++ {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			w := &discardWriter{header: http.Header{}}
			per = min(per, testing.AllocsPerRun(1, func() { h.ServeHTTP(w, req) }))
			if w.code != http.StatusOK || w.n == 0 {
				t.Fatalf("GET %s: %d with %d bytes", target, w.code, w.n)
			}
		}
		allocs[limit] = per
	}
	t.Logf("allocations a list request: %v by limit", allocs)
	if allocs[10] != allocs[100] || allocs[100] != allocs[1000] {
		t.Fatalf("a list request allocated %v times at limits 10, 100 and 1000, want the same at each",
			[]float64{allocs[10], allocs[100], allocs[1000]})
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps none of
// it.
type discardWriter struct {
	header  http.Header
	code, n int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
