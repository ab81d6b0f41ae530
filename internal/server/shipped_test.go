package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateShipped = flag.Bool("update-shipped", false, "rewrite testdata/shipped/*/expected.json from this checkout")

// shippedFormats are the run-history directories released coordinators
// left behind, by the commit whose dyflow-serve wrote them
// (testdata/shipped/generate.sh drives each through the same runs).
var shippedFormats = []struct{ commit, format string }{
	{"805298f", "every record carries the run's full document; the snapshot and WAL beside it are not kept"},
	{"11db59b", "the single log: every record carries the run's full document"},
	{"9bd3de6", "meta records; only a run with an XML override carries a document"},
}

// shippedBodies is what a coordinator restored from one generation serves,
// with timestamps in UTC and a restore's own QueuedAt stamp masked.
type shippedBodies struct {
	Resident  []json.RawMessage            `json:"resident"` // id, state and the job each would execute
	NextID    int                          `json:"next_id"`
	Lists     map[string][]json.RawMessage `json:"lists"` // target → every page of its walk
	Statuses  map[string]json.RawMessage   `json:"statuses"`
	Artifacts map[string]string            `json:"artifacts"` // id/name → sha256 of the bytes served
}

// TestRestoreShippedFormats restores every on-disk generation that shipped
// and holds what the coordinator then serves to the bodies recorded for it.
func TestRestoreShippedFormats(t *testing.T) {
	for _, g := range shippedFormats {
		t.Run(g.commit, func(t *testing.T) {
			src := filepath.Join("testdata", "shipped", g.commit)
			dir := t.TempDir()
			copyTree(t, src, dir)
			s, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir, Logger: log.New(io.Discard, "", 0)})
			if err != nil {
				t.Fatalf("%s (%s): %v", g.commit, g.format, err)
			}
			defer s.Close()
			got := servedBodies(t, s)

			golden := filepath.Join(src, "expected.json")
			if *updateShipped {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			var want shippedBodies
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			same := func(what string, got, want any) {
				t.Helper()
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(want)
				if string(gj) != string(wj) {
					t.Errorf("%s (%s): %s differs\n got  %s\n want %s", g.commit, g.format, what, gj, wj)
				}
			}
			same("resident set", got.Resident, want.Resident)
			same("nextID", got.NextID, want.NextID)
			for target, pages := range want.Lists {
				same("GET "+target, got.Lists[target], pages)
			}
			same("list targets", len(got.Lists), len(want.Lists))
			for id, body := range want.Statuses {
				same("GET /v1/runs/"+id, got.Statuses[id], body)
			}
			same("statuses", len(got.Statuses), len(want.Statuses))
			same("artifacts", got.Artifacts, want.Artifacts)
		})
	}
}

// servedBodies reads everything TestRestoreShippedFormats compares.
func servedBodies(t *testing.T, s *Server) shippedBodies {
	t.Helper()
	h := s.Handler()
	out := shippedBodies{Lists: map[string][]json.RawMessage{}, Statuses: map[string]json.RawMessage{}, Artifacts: map[string]string{}}
	s.mu.Lock()
	resident := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		resident = append(resident, r)
	}
	sort.Slice(resident, func(i, j int) bool { return runOrdinal(resident[i].ID) < runOrdinal(resident[j].ID) })
	for _, r := range resident {
		out.Resident = append(out.Resident, mustJSON(t, map[string]any{"id": r.ID, "state": r.State, "job": r.job()}))
	}
	out.NextID = s.nextID
	s.mu.Unlock()

	for _, target := range []string{"/v1/runs?limit=2", "/v1/runs?tenant=alice&limit=100", "/v1/runs?state=done&limit=100", "/v1/runs?state=queued&limit=100"} {
		for next := target; next != ""; {
			body := served(t, h, next)
			out.Lists[target] = append(out.Lists[target], normalizeBody(t, body))
			var page RunPage
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatal(err)
			}
			next = ""
			if page.NextPageToken != "" {
				next = target + "&page_token=" + page.NextPageToken
			}
			if target == "/v1/runs?limit=2" {
				for _, st := range page.Runs {
					out.Statuses[st.ID] = normalizeBody(t, served(t, h, "/v1/runs/"+st.ID))
					for _, name := range st.Artifacts {
						sum := sha256.Sum256(served(t, h, "/v1/runs/"+st.ID+"/artifacts/"+name))
						out.Artifacts[st.ID+"/"+name] = hex.EncodeToString(sum[:])
					}
				}
			}
		}
	}
	return out
}

// served GETs target through h and returns the 200 body.
func served(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// normalizeBody re-encodes a status or page body with every timestamp in
// UTC, so the recorded bodies do not depend on the zone the test runs in,
// and masks the QueuedAt a restore stamps on each run it requeues.
func normalizeBody(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case []any:
			for _, e := range v {
				walk(e)
			}
		case map[string]any:
			for k, e := range v {
				if s, ok := e.(string); ok && strings.HasSuffix(k, "_at") {
					if at, err := time.Parse(time.RFC3339Nano, s); err == nil {
						v[k] = at.UTC().Format(time.RFC3339Nano)
					}
				}
				walk(e)
			}
			if _, ok := v["queued_at"]; ok && v["state"] == string(StateQueued) {
				v["queued_at"] = "(the restore)"
			}
		}
	}
	walk(v)
	return mustJSON(t, v)
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// copyTree copies the files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
