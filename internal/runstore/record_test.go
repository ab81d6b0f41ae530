package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dyflow/internal/ckpt"
)

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
			if again := encodePageToken(ns, id); again != tok {
				t.Fatalf("token %q decodes to (%d, %q), which encodes to %q", tok, ns, id, again)
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
		for i, m := range page.Items {
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

// TestUndecodableDocumentIsDeadBytes: a frame whose document does not
// decode, or describes another run, is dead bytes like a frame whose payload
// does not decode. The run's previous record wins and recovery logs the
// skip; Append refuses to write such a frame, so a live store and a
// reopened one agree.
func TestUndecodableDocumentIsDeadBytes(t *testing.T) {
	bad := []string{`[1,2,3]`, `{"id":7}`, string(mkDoc(99, 1))}
	check := func(what string, s *Store) {
		t.Helper()
		for i := range bad {
			if m, ok := s.GetMeta(fmt.Sprintf("run-%06d", i)); !ok || m.State != "queued" || m.Seed != int64(i) {
				t.Fatalf("%s: run %d reads %+v (ok=%v), want its queued record", what, i, m, ok)
			}
		}
	}
	for _, dir := range []string{"", t.TempDir()} {
		s := openStore(t, dir, Options{})
		for i, doc := range bad {
			m := mkMeta(i, "t0", "quickstart", "queued")
			if err := s.Append(m, mkDoc(i, int64(i))); err != nil {
				t.Fatal(err)
			}
			m.State, m.Terminal = "done", true
			if err := s.Append(m, []byte(doc)); err == nil {
				t.Fatalf("dir %q: Append took run %d's document %s", dir, i, doc)
			}
		}
		check(fmt.Sprintf("dir %q", dir), s)
		if dir == "" {
			continue
		}
		s.Close()

		// A coordinator that wrote documents beside every record could have
		// left such frames: checksummed and well framed, behind the good ones.
		f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		for i, doc := range bad {
			data, err := json.Marshal(entry{Seq: uint64(100 + i), Meta: mkMeta(i, "t0", "quickstart", "done"), Doc: json.RawMessage(doc)})
			if err != nil {
				t.Fatal(err)
			}
			if err := ckpt.WriteRecord(f, ckpt.Record{Kind: recordKind, Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var logged bytes.Buffer
		s2 := openStore(t, dir, Options{Logger: log.New(&logged, "", 0)})
		check("reopened", s2)
		if !strings.Contains(logged.String(), "skipped 3 records") {
			t.Fatalf("recovery did not log the skipped frames:\n%s", logged.String())
		}
		// The frames stay dead bytes behind the records appended after them.
		if err := s2.Append(mkMeta(3, "t0", "quickstart", "done"), nil); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3 := openStore(t, dir, Options{})
		check("reopened again", s3)
		if s3.Len() != 4 {
			t.Fatalf("reopened again with %d runs, want 4", s3.Len())
		}
	}
}

// sharedPopulation appends n done runs over 16 distinct jobs the way the
// coordinator records a campaign of cache hits: 8 tenants, one scenario,
// one machine, per job one key and one four-artifact digest set, and, when
// xml is set, one XML override that each run holds its own copy of (as each
// submission decodes its own).
func sharedPopulation(t *testing.T, s *Store, n int, xml string) {
	t.Helper()
	for i := 0; i < n; i++ {
		job := i % 16
		m := mkMeta(i, fmt.Sprintf("tenant-%d", i%8), "quickstart", "done")
		m.Machine, m.Seed, m.Cached, m.Converged = "summit", int64(job), i >= 16, true
		m.XML = strings.Clone(xml)
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

// restoredBytesPerRun bounds a recovered index entry. Measured on these
// populations, race detector on or off: 328 B/run with the repeated values
// shared (the 240-byte entry, its ID, its three index slots and its map
// slot), against 1 000 B/run live, where every entry keeps the strings and
// the artifact map it was appended with; with a 2.4 KB XML override on
// every run, 352 B/run restored (one copy) and 3 699 B/run live.
const restoredBytesPerRun = 500

// heapInUse is the live heap after two collections.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestRecoverSharesRepeatedValues(t *testing.T) {
	override := "<dyflow>" + strings.Repeat(`<sensor name="s" type="DISKSCAN" path="/gpfs/run/out/*.bp"/>`, 40) + "</dyflow>"
	var s *Store
	for _, pop := range []struct {
		name string
		n    int
		xml  string
	}{{"plain", 10000, ""}, {"xml", 1000, override}} {
		dir := t.TempDir()
		before := heapInUse()
		live, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		sharedPopulation(t, live, pop.n, pop.xml)
		livePerRun := float64(heapInUse()-before) / float64(pop.n)
		live.Close() // and garbage before the restored baseline is read

		before = heapInUse()
		restored, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		perRun := float64(heapInUse()-before) / float64(pop.n)
		t.Logf("%s (%d runs, %d B of XML each): live %.0f B/run, restored %.0f B/run", pop.name, pop.n, len(pop.xml), livePerRun, perRun)
		if restored.Len() != pop.n {
			t.Fatalf("%s: reopened with %d runs, want %d", pop.name, restored.Len(), pop.n)
		}
		if perRun > restoredBytesPerRun {
			t.Fatalf("%s: restored index holds %.0f B/run, want <= %d: repeated strings or artifact maps are not shared", pop.name, perRun, restoredBytesPerRun)
		}
		if pop.xml == "" {
			s = restored
			defer s.Close()
		} else {
			restored.Close()
		}
	}
	const n = 10000

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

// FuzzScanSegment: no segment image panics the scan or makes it allocate
// more than a small multiple of its size; the good prefix never passes the
// end (and is the end unless the tail is torn); frames are ascending,
// disjoint and inside it; and every frame re-encodes to exactly its bytes.
func FuzzScanSegment(f *testing.F) {
	frame := func(kind string, seq uint64, m Meta, doc string) []byte {
		data, err := json.Marshal(entry{Seq: seq, Meta: m, Doc: json.RawMessage(doc)})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ckpt.WriteRecord(&buf, ckpt.Record{Kind: kind, Data: data}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	var seg bytes.Buffer
	if err := ckpt.WriteHeader(&seg); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), seg.Bytes()...))
	withArts := mkMeta(1, "t1", "grayscott", "done")
	withArts.Artifacts = map[string]string{"report": "aa", "gantt": "bb"}
	for _, fr := range [][]byte{
		frame(recordKind, 1, mkMeta(0, "t0", "quickstart", "queued"), ""),
		frame(recordKind, 2, mkMeta(0, "t0", "quickstart", "done"), string(mkDoc(0, 9))),
		frame(recordKind, 3, withArts, `{"id":"run-000099"}`),
		frame("other", 4, mkMeta(2, "t0", "xgc", "done"), ""),
		frame(recordKind, 5, Meta{ID: "run-000000", Tenant: "t0", Tombstone: true}, ""),
	} {
		seg.Write(fr)
		f.Add(append([]byte(nil), seg.Bytes()...))
	}
	full := seg.Bytes()
	f.Add(append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef, 0x01))
	f.Add(append([]byte(nil), full[:len(full)-3]...))
	f.Add(append(append([]byte(nil), full[:headerSize]...), 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0))
	f.Add([]byte("DYCK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocated()
		frames, good, torn, _ := scanSegment(data)
		if got := heapAllocated() - before; got > 64<<10+64*uint64(len(data)) {
			t.Fatalf("a %d-byte segment allocated %d bytes", len(data), got)
		}
		if good > int64(len(data)) || (!torn && good != int64(len(data))) {
			t.Fatalf("good prefix %d of %d bytes (torn=%v)", good, len(data), torn)
		}
		end := int64(headerSize)
		for i, fr := range frames {
			if fr.off < end || fr.len <= 0 || fr.off+fr.len > good {
				t.Fatalf("frame %d at [%d,+%d) overlaps its predecessor (ends %d) or passes the good prefix %d", i, fr.off, fr.len, end, good)
			}
			end = fr.off + fr.len
			raw := data[fr.off:end]
			rec, err := ckpt.ReadRecord(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("frame %d does not read back: %v", i, err)
			}
			var out bytes.Buffer
			if err := ckpt.WriteRecord(&out, rec); err != nil || !bytes.Equal(out.Bytes(), raw) {
				t.Fatalf("frame %d re-encodes as %x, read from %x (%v)", i, out.Bytes(), raw, err)
			}
		}
	})
}

// heapAllocated is the heap the process has allocated so far, in bytes.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
