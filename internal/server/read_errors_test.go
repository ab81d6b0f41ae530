package server

import (
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
)

// A record without a document is its meta; a record whose document cannot
// be used is a fault. These tests keep the two apart on every read path:
// the fault is logged and counted, the run is still listed (a page is
// never short) and served from its meta, and restore fails — never
// requeues — a non-terminal run whose job document is gone.

const readErrSeries = "dyflow_runstore_read_errors_total"

// TestReadOverwrittenDocumentServesMeta overwrites an XML run's frame on
// disk under the running coordinator, so reading it back fails its
// checksum (at open time the scan would have dropped it as a torn tail).
func TestReadOverwrittenDocumentServesMeta(t *testing.T) {
	dir := t.TempDir()
	sink := &syncBuf{}
	s, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plain, err := s.Submit("alice", quick(31))
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, plain.ID)
	job := quick(32)
	job.XML = xmlOverride
	st, err := s.Submit("alice", job)
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s, st.ID); st.State != StateDone || st.Job.XML != xmlOverride {
		t.Fatalf("xml run: %+v", st)
	}

	// The XML run's done record is the log's last frame.
	seg := filepath.Join(dir, "runs", "seg-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("overwritten!"), fi.Size()-12); err != nil {
		t.Fatal(err)
	}
	f.Close()

	page, err := s.QueryRuns(RunQuery{Tenant: "alice", Limit: 2})
	if err != nil || len(page.Runs) != 2 || page.NextPageToken != "" {
		t.Fatalf("page over an unreadable document: %d runs, token %q, %v", len(page.Runs), page.NextPageToken, err)
	}
	got, err := s.RunStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for what, fallback := range map[string]Status{"list": page.Runs[1], "status": got} {
		// Everything but the XML survives in the meta.
		want := st
		want.Job.XML = ""
		sameStatuses(t, what+" from the meta", []Status{fallback}, []Status{want})
	}
	if blob, err := s.Artifact(st.ID, exp.ArtifactReport); err != nil || len(blob) == 0 {
		t.Fatalf("artifact of a run with an unreadable document: %v (%d bytes)", err, len(blob))
	}
	if v := counter(t, s, readErrSeries); v != 3 {
		t.Fatalf("%s = %v after a list, a status and an artifact read, want 3", readErrSeries, v)
	}
	if text := sink.String(); !strings.Contains(text, "history document of "+st.ID+" unusable") {
		t.Fatalf("the read failure never reached the logger:\n%s", text)
	}
	// The intact neighbour reads as before, and counts nothing.
	if ok, err := s.RunStatus(plain.ID); err != nil || ok.State != StateDone || ok.Job != quick(31) {
		t.Fatalf("intact run: %+v (%v)", ok, err)
	}
	if v := counter(t, s, readErrSeries); v != 3 {
		t.Fatalf("%s = %v after reading an intact record", readErrSeries, v)
	}
}

// TestReadUndecodableDocument hand-writes well-framed records whose
// documents are valid JSON but not their run's persistedRun: a failed run
// (terminal: stays evicted, served from its meta) and two queued XML runs
// (non-terminal: restore must fail them, not run some other job under
// their IDs).
func TestReadUndecodableDocument(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(runstore.Options{Dir: filepath.Join(dir, "runs")})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	meta := func(id string, state RunState) runstore.Meta {
		return runstore.Meta{
			ID: id, Tenant: "alice", Scenario: exp.ScenarioQuickstart, Machine: "dt2", Seed: 5,
			State: string(state), Terminal: state.Terminal(),
			SubmittedAtNs: now.UnixNano(), QueuedAtNs: now.UnixNano(),
		}
	}
	failed := meta("run-000000", StateFailed)
	failed.Error, failed.FinishedAtNs = "boom", now.UnixNano()+1
	stranger, err := json.Marshal(persistedRun{ID: "run-000099", Tenant: "mallory", Job: quick(1), State: StateQueued, SubmittedAt: now})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		m   runstore.Meta
		doc string
	}{
		{failed, `[1,2,3]`},
		{meta("run-000001", StateQueued), `{"id":7}`},
		{meta("run-000002", StateQueued), string(stranger)},
		{meta("run-000003", StateQueued), ""}, // no document: the meta is the record
	} {
		if err := store.Append(rec.m, []byte(rec.doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	sink := &syncBuf{}
	s, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Restore: only the intact queued run is back on the queue.
	if s.QueueDepth() != 1 || counter(t, s, "dyflow_server_restore_requeued_total") != 1 {
		t.Fatalf("restore queued %d runs (requeued counter %v), want 1", s.QueueDepth(), counter(t, s, "dyflow_server_restore_requeued_total"))
	}
	if v := counter(t, s, readErrSeries); v != 2 {
		t.Fatalf("%s = %v after restore, want 2", readErrSeries, v)
	}
	for _, id := range []string{"run-000001", "run-000002"} {
		st, err := s.RunStatus(id)
		if err != nil || st.State != StateFailed || st.Error != errJobDocumentLost.Error() || st.Tenant != "alice" {
			t.Fatalf("%s after restore: %+v (%v)", id, st, err)
		}
	}
	if st, err := s.RunStatus("run-000003"); err != nil || st.State != StateQueued || st.Job != quick(5) {
		t.Fatalf("document-less queued run after restore: %+v (%v)", st, err)
	}

	// List and status of the terminal run: from the meta, counted, and the
	// page is whole.
	page, err := s.QueryRuns(RunQuery{Limit: 4})
	if err != nil || len(page.Runs) != 4 {
		t.Fatalf("page: %d runs, %v", len(page.Runs), err)
	}
	st, err := s.RunStatus("run-000000")
	if err != nil {
		t.Fatal(err)
	}
	for what, got := range map[string]Status{"list": page.Runs[0], "status": st} {
		if got.ID != "run-000000" || got.State != StateFailed || got.Error != "boom" || got.Job != quick(5) || got.FinishedAt == nil {
			t.Fatalf("%s of a run with an undecodable document: %+v", what, got)
		}
	}
	// The two failed-at-restore runs were re-recorded without a document,
	// so only run-000000 still counts: once for the list, once for the status.
	if v := counter(t, s, readErrSeries); v != 4 {
		t.Fatalf("%s = %v after a list and a status, want 4", readErrSeries, v)
	}
	if text := sink.String(); !strings.Contains(text, "history document of run-000002 unusable") || !strings.Contains(text, `describes run "run-000099"`) {
		t.Fatalf("the decode failures never reached the logger:\n%s", text)
	}
	if text := metricsText(t, s); !strings.Contains(text, readErrSeries+" 4") {
		t.Fatalf("%s missing from the Prometheus exposition", readErrSeries)
	}

	// A second restart changes nothing: the failures were recorded.
	s.Close()
	s2, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st, err := s2.RunStatus("run-000002"); err != nil || st.State != StateFailed || st.Error != errJobDocumentLost.Error() {
		t.Fatalf("run-000002 after a second restart: %+v (%v)", st, err)
	}
	if s2.QueueDepth() != 1 || counter(t, s2, readErrSeries) != 0 {
		t.Fatalf("second restart: queue %d, %s %v", s2.QueueDepth(), readErrSeries, counter(t, s2, readErrSeries))
	}
}
