package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dyflow/internal/obs"
)

// mkMeta builds a deterministic terminal run meta. Submission times are
// spaced 1ms apart so ordering is unambiguous.
func mkMeta(i int, tenant, scenario, state string) Meta {
	terminal := state == "done" || state == "failed" || state == "canceled"
	m := Meta{
		ID:            fmt.Sprintf("run-%06d", i),
		Tenant:        tenant,
		Scenario:      scenario,
		Key:           fmt.Sprintf("key-%06d", i),
		State:         state,
		Terminal:      terminal,
		SubmittedAtNs: int64(1_000_000_000 + i*1_000_000),
	}
	if terminal {
		m.FinishedAtNs = m.SubmittedAtNs + 5_000_000
	}
	return m
}

func mkDoc(i int) []byte {
	doc, _ := json.Marshal(map[string]any{"id": fmt.Sprintf("run-%06d", i), "payload": i})
	return doc
}

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	opt.Dir = dir
	s, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendGetRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "disk"
		if dir == "" {
			name = "memory"
		}
		t.Run(name, func(t *testing.T) {
			s := openStore(t, dir, Options{})
			for i := 0; i < 10; i++ {
				if err := s.Append(mkMeta(i, "t0", "quickstart", "done"), mkDoc(i)); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			it, ok := s.Get("run-000007")
			if !ok {
				t.Fatal("run-000007 missing")
			}
			if string(it.Doc) != string(mkDoc(7)) {
				t.Fatalf("doc mismatch: %s", it.Doc)
			}
			if it.Meta.Tenant != "t0" || it.Meta.State != "done" {
				t.Fatalf("meta mismatch: %+v", it.Meta)
			}
			if _, ok := s.Get("run-999999"); ok {
				t.Fatal("nonexistent run found")
			}
			if s.Len() != 10 {
				t.Fatalf("Len = %d, want 10", s.Len())
			}
		})
	}
}

func TestLatestRecordWins(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	m := mkMeta(0, "t0", "quickstart", "queued")
	m.Terminal = false
	if err := s.Append(m, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	m.State, m.Terminal = "running", false
	if err := s.Append(m, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	m.State, m.Terminal = "done", true
	if err := s.Append(m, []byte(`{"v":3}`)); err != nil {
		t.Fatal(err)
	}
	it, _ := s.Get(m.ID)
	if it.Meta.State != "done" || string(it.Doc) != `{"v":3}` {
		t.Fatalf("latest record not served: %+v %s", it.Meta, it.Doc)
	}
	st := s.Stats()
	if st.LiveRecords != 1 || st.DeadRecords != 2 {
		t.Fatalf("stats = %+v, want 1 live / 2 dead", st)
	}
	s.Close()

	// Recovery must also pick the latest record.
	s2 := openStore(t, dir, Options{})
	it, ok := s2.Get(m.ID)
	if !ok || it.Meta.State != "done" || string(it.Doc) != `{"v":3}` {
		t.Fatalf("after reopen: %+v %s (ok=%v)", it.Meta, it.Doc, ok)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentBytes: 2048})
	for i := 0; i < 100; i++ {
		if err := s.Append(mkMeta(i, "t0", "quickstart", "done"), mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	s.Close()

	s2 := openStore(t, dir, Options{SegmentBytes: 2048})
	if s2.Len() != 100 {
		t.Fatalf("after reopen Len = %d, want 100", s2.Len())
	}
	for i := 0; i < 100; i++ {
		it, ok := s2.Get(fmt.Sprintf("run-%06d", i))
		if !ok || string(it.Doc) != string(mkDoc(i)) {
			t.Fatalf("run %d lost or corrupt after rotation+reopen", i)
		}
	}
}

func TestCompactionReclaimsDeadRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentBytes: 2048, CompactMinRecords: 1 << 30})
	// Three generations of the same 40 runs: 2/3 of records are dead.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 40; i++ {
			m := mkMeta(i, "t0", "quickstart", "done")
			if err := s.Append(m, mkDoc(i+gen*1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats()
	if before.DeadRecords != 80 {
		t.Fatalf("dead = %d, want 80", before.DeadRecords)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.LiveRecords != 40 {
		t.Fatalf("live = %d, want 40", after.LiveRecords)
	}
	if after.TotalRecords >= before.TotalRecords {
		t.Fatalf("compaction reclaimed nothing: %d -> %d records", before.TotalRecords, after.TotalRecords)
	}
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction reclaimed no bytes: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	// Every run still serves its latest doc.
	for i := 0; i < 40; i++ {
		it, ok := s.Get(fmt.Sprintf("run-%06d", i))
		if !ok || string(it.Doc) != string(mkDoc(i+2000)) {
			t.Fatalf("run %d wrong after compaction: %s", i, it.Doc)
		}
	}
	s.Close()
	s2 := openStore(t, dir, Options{SegmentBytes: 2048})
	if s2.Len() != 40 {
		t.Fatalf("after reopen Len = %d, want 40", s2.Len())
	}
}

func TestTombstoneDeletesAcrossReopenAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentBytes: 1024, CompactMinRecords: 1 << 30})
	for i := 0; i < 20; i++ {
		if err := s.Append(mkMeta(i, "t0", "quickstart", "done"), mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(Meta{ID: "run-000003", Tenant: "t0", Tombstone: true}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("run-000003"); ok {
		t.Fatal("tombstoned run still served")
	}
	s.Close()

	s2 := openStore(t, dir, Options{SegmentBytes: 1024, CompactMinRecords: 1 << 30})
	if _, ok := s2.Get("run-000003"); ok {
		t.Fatal("tombstoned run resurrected by reopen")
	}
	if s2.Len() != 19 {
		t.Fatalf("Len = %d, want 19", s2.Len())
	}
	// Force rotation so the tombstone seals, then compact: the
	// tombstone and the deleted run's records all vanish.
	for i := 100; i < 140; i++ {
		if err := s2.Append(mkMeta(i, "t0", "quickstart", "done"), mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("run-000003"); ok {
		t.Fatal("tombstoned run back after compaction")
	}
	s2.Close()
	s3 := openStore(t, dir, Options{})
	if _, ok := s3.Get("run-000003"); ok {
		t.Fatal("tombstoned run back after compaction+reopen")
	}
	if s3.Len() != 59 {
		t.Fatalf("Len = %d, want 59", s3.Len())
	}
}

func TestSweepRetentionMaxAge(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	now := time.Unix(100_000, 0)
	old := mkMeta(0, "t0", "quickstart", "done")
	old.FinishedAtNs = now.Add(-2 * time.Hour).UnixNano()
	fresh := mkMeta(1, "t0", "quickstart", "done")
	fresh.FinishedAtNs = now.Add(-time.Minute).UnixNano()
	pending := mkMeta(2, "t0", "quickstart", "running")
	pending.Terminal = false
	for _, m := range []Meta{old, fresh, pending} {
		if err := s.Append(m, mkDoc(0)); err != nil {
			t.Fatal(err)
		}
	}
	victims := s.SweepRetention(Retention{MaxAge: time.Hour}, now)
	if len(victims) != 1 || victims[0].ID != old.ID {
		t.Fatalf("victims = %+v, want just %s", victims, old.ID)
	}
	if _, ok := s.Get(old.ID); ok {
		t.Fatal("aged-out run still served")
	}
	if _, ok := s.Get(fresh.ID); !ok {
		t.Fatal("fresh run deleted")
	}
	if _, ok := s.Get(pending.ID); !ok {
		t.Fatal("non-terminal run deleted by retention")
	}
}

func TestSweepRetentionMaxBytesPerTenant(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	// Tenant t0: three terminal runs of 100 bytes each, finished in
	// order; budget 250 keeps the newest two. Tenant t1 is under budget.
	for i := 0; i < 3; i++ {
		m := mkMeta(i, "t0", "quickstart", "done")
		m.ArtifactBytes = 100
		m.FinishedAtNs = int64(10_000_000_000 + i*1_000_000_000)
		if err := s.Append(m, mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := mkMeta(10, "t1", "quickstart", "done")
	m.ArtifactBytes = 100
	m.FinishedAtNs = 1
	if err := s.Append(m, mkDoc(10)); err != nil {
		t.Fatal(err)
	}
	victims := s.SweepRetention(Retention{MaxBytes: 250}, time.Unix(1000, 0))
	if len(victims) != 1 || victims[0].ID != "run-000000" {
		t.Fatalf("victims = %+v, want just run-000000 (the oldest-finished over budget)", victims)
	}
	if _, ok := s.Get("run-000010"); !ok {
		t.Fatal("under-budget tenant's run deleted")
	}
}

func TestQueryFiltersAndPagination(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	states := []string{"done", "failed", "done", "canceled"}
	for i := 0; i < 40; i++ {
		tenant := fmt.Sprintf("t%d", i%2)
		scenario := []string{"quickstart", "grayscott"}[i%2]
		if err := s.Append(mkMeta(i, tenant, scenario, states[i%4]), mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	page, err := s.Query(Query{Tenant: "t0", State: "done", Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	// t0 runs are even i; "done" are i%4 in {0, 2} — all even i qualify.
	if len(page.Items) != 20 {
		t.Fatalf("got %d items, want 20", len(page.Items))
	}
	if page.NextPageToken != "" {
		t.Fatalf("unexpected next page token %q", page.NextPageToken)
	}

	// Paginate in pages of 3 and verify exact coverage and order.
	var all []string
	tok := ""
	pages := 0
	for {
		p, err := s.Query(Query{Tenant: "t0", State: "done", Limit: 3, PageToken: tok})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range p.Items {
			all = append(all, it.Meta.ID)
		}
		pages++
		if p.NextPageToken == "" {
			break
		}
		tok = p.NextPageToken
		if pages > 50 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(all) != 20 {
		t.Fatalf("paginated total = %d, want 20", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatalf("pagination misordered: %s after %s", all[i], all[i-1])
		}
	}

	// Time range: runs 10..19 inclusive by SubmittedAt.
	since := time.Unix(0, mkMeta(10, "", "", "done").SubmittedAtNs)
	until := time.Unix(0, mkMeta(19, "", "", "done").SubmittedAtNs)
	p, err := s.Query(Query{Since: since, Until: until})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 10 {
		t.Fatalf("time-range query: %d items, want 10", len(p.Items))
	}

	// Bad page token is an error, not a silent full scan.
	if _, err := s.Query(Query{PageToken: "not base64!"}); err == nil {
		t.Fatal("bad page token accepted")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Append(mkMeta(i, "t0", "quickstart", "done"), mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Append garbage — a torn frame from a crash mid-write.
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	s2 := openStore(t, dir, Options{})
	if s2.Len() != 5 {
		t.Fatalf("Len = %d after torn tail, want 5", s2.Len())
	}
	// The truncation must leave the file appendable again.
	if err := s2.Append(mkMeta(5, "t0", "quickstart", "done"), mkDoc(5)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openStore(t, dir, Options{})
	if s3.Len() != 6 {
		t.Fatalf("Len = %d after truncate+append+reopen, want 6", s3.Len())
	}
}

func TestLeftoverTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	s.Append(mkMeta(0, "t0", "quickstart", "done"), mkDoc(0))
	s.Close()
	tmp := segPath(dir, 1) + ".tmp"
	if err := os.WriteFile(tmp, []byte("partial compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not removed: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	reg := obs.NewRegistry()
	s := openStore(t, t.TempDir(), Options{Metrics: reg})
	s.Close()
	if err := s.Append(mkMeta(0, "t0", "quickstart", "done"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close: %v, want ErrClosed", err)
	}
	if v, _ := reg.Value("dyflow_runstore_append_errors_total"); v != 1 {
		t.Fatalf("append_errors_total = %v after a refused append, want 1", v)
	}
}

// TestMaxOrdinalSurvivesRetentionAndCompaction: the run-ordinal
// high-water is durable even when every run that carried it has been
// tombstoned and compacted away — the one frame holding it is kept.
func TestMaxOrdinalSurvivesRetentionAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 512, CompactMinRecords: 1 << 30}
	s := openStore(t, dir, opt)
	if got := s.MaxOrdinal(); got != -1 {
		t.Fatalf("empty store MaxOrdinal = %d, want -1", got)
	}
	for i := 0; i < 8; i++ {
		if err := s.Append(mkMeta(i, "t0", "quickstart", "done"), mkDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.SweepRetention(Retention{MaxAge: time.Nanosecond}, time.Now())); n != 8 {
		t.Fatalf("retention deleted %d of 8", n)
	}
	// Seal the tombstones behind one ordinal-less record, then compact
	// until nothing more drops.
	big, _ := json.Marshal(strings.Repeat("x", 600))
	if err := s.Append(Meta{ID: "marker", Tenant: "t0", State: "done", Terminal: true}, big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.LiveRecords != 1 || st.TotalRecords != 2 {
		t.Fatalf("after compaction: %+v, want the marker plus the one high-water tombstone", st)
	}
	s.Close()

	s2 := openStore(t, dir, opt)
	if got := s2.MaxOrdinal(); got != 7 {
		t.Fatalf("MaxOrdinal after retention+compaction+reopen = %d, want 7", got)
	}
	if _, ok := s2.Get("run-000007"); ok {
		t.Fatal("the kept high-water tombstone resurrected its run")
	}
}

func TestDigests(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	m := mkMeta(0, "t0", "quickstart", "done")
	m.Artifacts = map[string]string{"report": "aaa", "gantt": "bbb"}
	s.Append(m, mkDoc(0))
	m2 := mkMeta(1, "t0", "quickstart", "done")
	m2.Artifacts = map[string]string{"report": "aaa"}
	s.Append(m2, mkDoc(1))
	d := s.Digests()
	if !d["aaa"] || !d["bbb"] || len(d) != 2 {
		t.Fatalf("digests = %v", d)
	}
	s.Append(Meta{ID: m2.ID, Tenant: "t0", Tombstone: true}, nil)
	d = s.Digests()
	if !d["aaa"] || !d["bbb"] {
		t.Fatalf("digests after tombstoning a sharer = %v (aaa still referenced by run 0)", d)
	}
}
