package runstore

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
)

// TestNoDocumentNeverLooksLikeUnreadable pins the Item contract the
// coordinator's reader rule rests on: a record appended without a document
// reads back as (nil Doc, nil Err) from memory alone, and a record whose
// document cannot be read back is (nil Doc, non-nil Err) — in Get and in a
// Query page, which stays as long as its limit.
func TestNoDocumentNeverLooksLikeUnreadable(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s := openStore(t, dir, Options{})
		bare, full := mkMeta(0, "t0", "quickstart", "done"), mkMeta(1, "t0", "quickstart", "done")
		if err := s.Append(bare, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(full, mkDoc(1)); err != nil {
			t.Fatal(err)
		}
		if it, ok := s.Get(bare.ID); !ok || it.Doc != nil || it.Err != nil {
			t.Fatalf("dir %q: document-less record read back as %q / %v", dir, it.Doc, it.Err)
		}
		if it, ok := s.Get(full.ID); !ok || string(it.Doc) != string(mkDoc(1)) || it.Err != nil {
			t.Fatalf("dir %q: document read back as %q / %v", dir, it.Doc, it.Err)
		}
		if dir == "" {
			continue
		}

		// Overwrite the tail of the last frame — the document-bearing one —
		// under the open store: its checksum no longer matches.
		fi, err := os.Stat(segPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("overwritten!"), fi.Size()-12); err != nil {
			t.Fatal(err)
		}
		f.Close()

		it, ok := s.Get(full.ID)
		if !ok || it.Doc != nil || it.Err == nil || it.Meta.ID != full.ID {
			t.Fatalf("overwritten frame read back as %q / %v (ok=%v)", it.Doc, it.Err, ok)
		}
		page, err := s.Query(Query{Tenant: "t0", Limit: 2})
		if err != nil || len(page.Items) != 2 {
			t.Fatalf("page over an unreadable record: %d items, %v", len(page.Items), err)
		}
		if page.Items[0].Err != nil || page.Items[1].Err == nil || page.Items[1].Meta.State != "done" {
			t.Fatalf("page items: %+v", page.Items)
		}

		// Reopened, a document-less record still has none, and the scan
		// drops the overwritten frame as the torn tail it now is.
		s.Close()
		s2 := openStore(t, dir, Options{})
		if it, ok := s2.Get(bare.ID); !ok || it.Doc != nil || it.Err != nil {
			t.Fatalf("after reopen: document-less record read back as %q / %v", it.Doc, it.Err)
		}
		if _, ok := s2.Get(full.ID); ok {
			t.Fatal("after reopen: the overwritten frame survived the scan")
		}
	}
}

func FuzzPageToken(f *testing.F) {
	s, err := Open(Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		m := mkMeta(i, fmt.Sprintf("t%d", i%2), "quickstart", "done")
		m.SubmittedAtNs = int64(1_000_000_000 + i/3) // ties, broken by ID
		if err := s.Append(m, nil); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []string{"", "!!", "fA", encodePageToken(0, ""), encodePageToken(1_000_000_004, "run-000013"),
		encodePageToken(-7, "x|y"), encodePageToken(1<<62, "run-999999"), "MTIzYWJjfHJ1bg", "fHw", "OTk5OTk5OTk5OTk5OTk5OTk5OTk5OXxh"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		ns, id, derr := decodePageToken(tok)
		if derr == nil {
			ns2, id2, err := decodePageToken(encodePageToken(ns, id))
			if err != nil || ns2 != ns || id2 != id {
				t.Fatalf("token %q decodes to (%d, %q), which re-encodes to (%d, %q, %v)", tok, ns, id, ns2, id2, err)
			}
		}
		page, qerr := s.Query(Query{PageToken: tok, Limit: 7})
		if tok != "" && (qerr == nil) != (derr == nil) {
			t.Fatalf("token %q: decode says %v, Query says %v", tok, derr, qerr)
		}
		if qerr != nil {
			return
		}
		if len(page.Items) > 7 {
			t.Fatalf("token %q: page of %d over limit 7", tok, len(page.Items))
		}
		prevNs, prevID := ns, id
		for i, it := range page.Items {
			m := it.Meta
			after := m.SubmittedAtNs > prevNs || (m.SubmittedAtNs == prevNs && m.ID > prevID)
			if (i > 0 || tok != "") && !after {
				t.Fatalf("token %q: item %d (%d, %s) not after (%d, %s)", tok, i, m.SubmittedAtNs, m.ID, prevNs, prevID)
			}
			prevNs, prevID = m.SubmittedAtNs, m.ID
		}
		if page.NextPageToken != "" {
			nns, nid, err := decodePageToken(page.NextPageToken)
			if err != nil || len(page.Items) != 7 || nns != prevNs || nid != prevID {
				t.Fatalf("token %q: next token (%d, %q, %v) is not the last of %d items (%d, %q)", tok, nns, nid, err, len(page.Items), prevNs, prevID)
			}
		}
	})
}

// sharedPopulation appends n done runs over 16 distinct jobs the way the
// coordinator records a campaign of cache hits: 8 tenants, one scenario,
// one machine, and per job one key and one four-artifact digest set.
func sharedPopulation(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		job := i % 16
		m := mkMeta(i, fmt.Sprintf("tenant-%d", i%8), "quickstart", "done")
		m.Machine, m.Seed, m.Cached, m.Converged = "summit", int64(job), i >= 16, true
		m.Key = fmt.Sprintf("%064x", job)
		m.QueuedAtNs, m.ClaimedAtNs, m.StartedAtNs = m.SubmittedAtNs, m.SubmittedAtNs+1, m.SubmittedAtNs+2
		m.SimEndNs, m.ArtifactBytes = 3_600_000_000_000, 40_000
		m.Artifacts = map[string]string{}
		for _, name := range []string{"report", "gantt", "perfetto", "metrics"} {
			m.Artifacts[name] = fmt.Sprintf("%060x%04x", job, len(name))
		}
		if err := s.Append(m, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// restoredBytesPerRun bounds a recovered index entry. Measured on this
// population, race detector on or off: 376 B/run with the repeated values
// shared (the 288-byte entry, its ID, its three index slots and its map
// slot), 1 095 B/run when every entry keeps the strings and the artifact
// map its frame was decoded into.
const restoredBytesPerRun = 500

func TestRecoverSharesRepeatedValues(t *testing.T) {
	const n = 10000
	dir := t.TempDir()
	func() { // the writing store is garbage before the baseline is read
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		sharedPopulation(t, s, n)
		s.Close()
	}()

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	perRun := float64(heap()-before) / n
	t.Logf("restored index: %.0f B/run", perRun)
	if s.Len() != n {
		t.Fatalf("reopened with %d runs, want %d", s.Len(), n)
	}
	if perRun > restoredBytesPerRun {
		t.Fatalf("restored index holds %.0f B/run, want <= %d: repeated strings or artifact maps are not shared", perRun, restoredBytesPerRun)
	}

	// Sharing is safe because nobody writes: appends that hand the store a
	// map the index already shares run beside readers of that map (-race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src, ok := s.GetMeta(fmt.Sprintf("run-%06d", (w*200+i)%n))
				if !ok {
					t.Error("lost a run")
					return
				}
				m := src
				m.ID = fmt.Sprintf("run-%06d", n+w*200+i)
				if err := s.Append(m, nil); err != nil {
					t.Error(err)
					return
				}
				if w%2 == 0 {
					if i%20 == 0 {
						s.Digests()
					}
				} else if _, err := s.Query(Query{Tenant: m.Tenant, State: "done", Limit: 50}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != n+800 {
		t.Fatalf("after concurrent appends: %d runs, want %d", s.Len(), n+800)
	}
}
