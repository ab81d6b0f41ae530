package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
	"dyflow/internal/server/fleet"
)

// TestTerminalRunsEvicted pins the bounded-heap contract: a run that
// reaches a terminal state leaves the resident run map (its record moves
// to the history store) while every read path — status, listing,
// artifacts — keeps answering for it.
func TestTerminalRunsEvicted(t *testing.T) {
	s, err := New(Config{Workers: 2, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 12
	var ids []string
	for i := 0; i < n; i++ {
		st, err := s.Submit("alice", quick(int64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := await(t, s, id); st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
	}

	s.mu.Lock()
	resident := len(s.runs)
	s.mu.Unlock()
	if resident != 0 {
		t.Fatalf("%d terminal runs still resident; want all evicted to the history store", resident)
	}
	if got := s.History().Len(); got != n {
		t.Fatalf("history holds %d runs, want %d", got, n)
	}

	// Every read path still answers for evicted runs.
	if all := listRuns(t, s); len(all) != n {
		t.Fatalf("the run listing holds %d, want %d", len(all), n)
	}
	st, err := s.RunStatus(ids[0])
	if err != nil || st.State != StateDone {
		t.Fatalf("evicted run status: %+v (%v)", st, err)
	}
	if st.FinishedAt == nil || st.StartedAt == nil {
		t.Fatalf("evicted run lost phase timestamps: %+v", st)
	}
	blob, err := s.Artifact(ids[0], exp.ArtifactReport)
	if err != nil || len(blob) == 0 {
		t.Fatalf("evicted run artifact: %v (%d bytes)", err, len(blob))
	}

	// A duplicate submission still hits the result cache after eviction.
	dup, err := s.Submit("bob", quick(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached || dup.State != StateDone {
		t.Fatalf("duplicate of an evicted run not served from cache: %+v", dup)
	}
	// And cancel on an evicted terminal run reports its final state, not 404.
	if st, err := s.Cancel(ids[1]); err != nil || st.State != StateDone {
		t.Fatalf("cancel of evicted run: %+v (%v)", st, err)
	}
}

// TestListPaginationAndFilters drives GET /v1/runs: the default limit,
// tenant/state filters, cursor pagination to exhaustion, and the 400s
// for malformed parameters.
func TestListPaginationAndFilters(t *testing.T) {
	s, err := New(Config{Workers: 2, TenantQuota: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 9
	var ids []string
	for i := 0; i < n; i++ {
		st, err := s.Submit(fmt.Sprintf("tenant-%d", i%3), quick(int64(2000+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := await(t, s, id); st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
	}

	getPage := func(query string) RunPage {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/v1/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/runs%s: %s (%v) %s", query, resp.Status, err, data)
		}
		var page RunPage
		if err := json.Unmarshal(data, &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	// Unfiltered with no limit: the default applies and covers all 9.
	if page := getPage(""); len(page.Runs) != n || page.NextPageToken != "" {
		t.Fatalf("default listing: %d runs, token %q", len(page.Runs), page.NextPageToken)
	}

	// Paginate with limit=4: 4 + 4 + 1, distinct runs, then no token.
	seen := map[string]bool{}
	token := ""
	pages := 0
	for {
		q := "?limit=4"
		if token != "" {
			q += "&page_token=" + url.QueryEscape(token)
		}
		page := getPage(q)
		if len(page.Runs) > 4 {
			t.Fatalf("page %d has %d runs, over limit 4", pages, len(page.Runs))
		}
		for _, st := range page.Runs {
			if seen[st.ID] {
				t.Fatalf("run %s repeated across pages", st.ID)
			}
			seen[st.ID] = true
		}
		pages++
		if token = page.NextPageToken; token == "" {
			break
		}
	}
	if len(seen) != n || pages != 3 {
		t.Fatalf("pagination saw %d runs over %d pages, want %d over 3", len(seen), pages, n)
	}

	// Tenant filter.
	page := getPage("?tenant=tenant-0")
	if len(page.Runs) != 3 {
		t.Fatalf("tenant-0 filter returned %d runs, want 3", len(page.Runs))
	}
	for _, st := range page.Runs {
		if st.Tenant != "tenant-0" {
			t.Fatalf("tenant filter leaked %+v", st)
		}
	}
	// State filter: everything is done; canceled matches nothing.
	if page := getPage("?state=done"); len(page.Runs) != n {
		t.Fatalf("state=done returned %d, want %d", len(page.Runs), n)
	}
	if page := getPage("?state=canceled"); len(page.Runs) != 0 {
		t.Fatalf("state=canceled returned %d, want 0", len(page.Runs))
	}
	// Time filter: since far in the future matches nothing.
	future := time.Now().Add(24 * time.Hour).UTC().Format(time.RFC3339)
	if page := getPage("?since=" + url.QueryEscape(future)); len(page.Runs) != 0 {
		t.Fatalf("future since returned %d runs", len(page.Runs))
	}

	// Malformed parameters are 400s, not 500s or empty pages.
	for _, q := range []string{"?limit=0", "?limit=-3", "?limit=nope", "?since=yesterday", "?page_token=%21%21not-base64", "?page_token=KzEyfHJ1bi0wMDAwMDE"} {
		resp, err := http.Get("http://" + addr + "/v1/runs" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/runs%s: %s, want 400", q, resp.Status)
		}
	}
}

// TestSweepRetentionCountsEachBlobOnce: a blob the coordinator wrote sits
// in its memory and in CkptDir/blobs, and dyflow_runstore_gc_blobs_total
// counts the blobs a sweep removed, not their copies.
func TestSweepRetentionCountsEachBlobOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{
		Workers: 1, TenantQuota: -1, CkptDir: dir,
		RetentionMaxAge: time.Nanosecond, RetentionInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seed := int64(1); seed <= 2; seed++ {
		st, err := s.Submit("alice", quick(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st = await(t, s, st.ID); st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	blobFiles := func() int {
		n := 0
		filepath.WalkDir(filepath.Join(dir, "blobs"), func(_ string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return nil
		})
		return n
	}
	held := blobFiles()
	if mem := counter(t, s, "dyflow_server_fleet_blobs"); held == 0 || float64(held) != mem {
		t.Fatalf("%d blob files for %v blobs in memory", held, mem)
	}
	if n := s.SweepRetention(); n != 2 {
		t.Fatalf("retention deleted %d of 2 runs", n)
	}
	if left := blobFiles(); left != 0 {
		t.Fatalf("%d blob files left after every run was deleted", left)
	}
	if v := counter(t, s, "dyflow_runstore_gc_blobs_total"); v != float64(held) {
		t.Fatalf("dyflow_runstore_gc_blobs_total = %v after sweeping %d blobs", v, held)
	}
}

// TestCacheReadsItsSource: the result cache names a run, and an answer is
// read from that run's record. Once the record is gone — here retention in
// the store deleted it, without the server's own cleanup — an identical
// submission queues instead of answering done, and the entry is dropped.
func TestCacheReadsItsSource(t *testing.T) {
	ctx := context.Background()
	s, err := New(Config{Workers: -1, TenantQuota: -1, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	worker := s.register("", fleet.RegisterRequest{Name: "by-hand", Slots: 1}, time.Second).WorkerID
	src, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	claim, ok, err := s.Claim(ctx, worker, 0)
	if err != nil || !ok || claim.RunID != src.ID {
		t.Fatalf("claim: %+v %v %v", claim, ok, err)
	}
	report := []byte("report of quick(1)")
	if err := s.PutBlobs(ctx, []fleet.Blob{{Digest: fleet.Digest(report), Data: report}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result(ctx, worker, fleet.ResultRequest{RunID: claim.RunID, LeaseID: claim.LeaseID, Converged: true,
		SimEndNs: int64(time.Second), Artifacts: map[string]string{exp.ArtifactReport: fleet.Digest(report)}})
	if err != nil || !res.Accepted {
		t.Fatalf("result: %+v %v", res, err)
	}
	if hit, err := s.Submit("alice", quick(1)); err != nil || hit.State != StateDone || !hit.Cached {
		t.Fatalf("identical submit answered %+v, %v; want a cache hit", hit, err)
	}

	victims := s.History().SweepRetention(runstore.Retention{MaxAge: time.Nanosecond}, time.Now().Add(time.Hour))
	if len(victims) != 2 {
		t.Fatalf("retention deleted %d runs, want the source and its cache hit", len(victims))
	}
	st, err := s.Submit("alice", quick(1))
	if err != nil || st.State != StateQueued || st.Cached {
		t.Fatalf("submit after the source was deleted answered %+v, %v; want queued", st, err)
	}
	s.mu.Lock()
	entries := len(s.cache)
	s.mu.Unlock()
	if entries != 0 {
		t.Fatalf("%d cache entries left; the one naming %s should be gone", entries, src.ID)
	}
}

// listRuns lists every run through GET /v1/runs, walking its pages.
func listRuns(t *testing.T, s *Server) []Status {
	t.Helper()
	all, _ := walk(t, s.Handler(), RunQuery{Limit: maxListLimit})
	return all
}
