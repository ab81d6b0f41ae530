package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Satellite: kill -9 crash recovery mid-rotation and mid-compaction.
// Each test hand-crafts the exact on-disk state a crash window leaves
// behind — partial .tmp output, renamed-but-not-deleted inputs
// (duplicate records), torn frames mid-rotation — and asserts the store
// recovers every acknowledged run with its committed latest state.

// seedSegments fills a store with n runs across several small segments
// plus one superseding rewrite of each, then closes it and returns each
// run's latest seed (its document's).
func seedSegments(t *testing.T, dir string, n int) map[string]int64 {
	t.Helper()
	s, err := Open(Options{Dir: dir, SegmentBytes: 1024, CompactMinRecords: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int64)
	for i := 0; i < n; i++ {
		m := mkMeta(i, "t0", "quickstart", "running")
		m.Terminal = false
		if err := s.Append(m, mkDoc(i, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := mkMeta(i, "t0", "quickstart", "done")
		if err := s.Append(m, mkDoc(i, int64(1000+i))); err != nil {
			t.Fatal(err)
		}
		want[m.ID] = int64(1000 + i)
	}
	if s.Stats().Segments < 3 {
		t.Fatalf("seed produced only %d segments; lower SegmentBytes", s.Stats().Segments)
	}
	s.Close()
	return want
}

func verifyRecovered(t *testing.T, dir string, want map[string]int64) {
	t.Helper()
	s, err := Open(Options{Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer s.Close()
	if s.Len() != len(want) {
		t.Fatalf("recovered %d runs, want %d", s.Len(), len(want))
	}
	for id, seed := range want {
		m, ok := s.GetMeta(id)
		if !ok {
			t.Fatalf("run %s lost", id)
		}
		if m.Seed != seed || m.State != "done" {
			t.Fatalf("run %s: %s with seed %d, want done with seed %d", id, m.State, m.Seed, seed)
		}
	}
	// The recovered store must still accept writes and survive another
	// reopen (recovery leaves a consistent, appendable log).
	m := mkMeta(9999, "t0", "quickstart", "done")
	if err := s.Append(m, nil); err != nil {
		t.Fatalf("post-recovery append: %v", err)
	}
}

func TestCrashMidCompactionPartialTmp(t *testing.T) {
	dir := t.TempDir()
	want := seedSegments(t, dir, 30)
	// Crash before the rename: the compactor died with half its output
	// written. The tmp holds real (committed-elsewhere) frames plus a
	// torn one — none of it may be read back as state.
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	tmp := segPath(dir, 1) + ".tmp"
	if err := os.WriteFile(tmp, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, dir, want)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("partial compaction tmp survived recovery")
	}
}

func TestCrashMidCompactionRenamedNotDeleted(t *testing.T) {
	dir := t.TempDir()
	want := seedSegments(t, dir, 30)

	// Run a real compaction but crash before input deletion: every input
	// beyond the first is still present, so each surviving run's record
	// now exists twice with the same sequence number.
	s, err := Open(Options{Dir: dir, SegmentBytes: 1024, CompactMinRecords: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Preserve the doomed inputs, compact, then restore them — the
	// on-disk result is exactly the rename-committed, deletes-lost state.
	var saved []struct {
		path string
		data []byte
	}
	for _, seg := range s.segs[:len(s.segs)-1] {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, struct {
			path string
			data []byte
		}{seg.path, data})
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, sv := range saved[1:] { // saved[0]'s path now holds the output
		if err := os.WriteFile(sv.path, sv.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	verifyRecovered(t, dir, want)
}

func TestCrashMidRotationTornFirstRecord(t *testing.T) {
	dir := t.TempDir()
	want := seedSegments(t, dir, 30)
	// Crash right after rotation wrote the new active segment's header
	// and part of its first record.
	var maxIdx int
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		var idx int
		if n, _ := fmt.Sscanf(de.Name(), "seg-%d.log", &idx); n == 1 && idx > maxIdx {
			maxIdx = idx
		}
	}
	next := segPath(dir, maxIdx+1)
	f, err := os.Create(next)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("DYCK")) // magic only — version and record torn off
	f.Close()
	verifyRecovered(t, dir, want)
}

func TestCrashMidRotationEmptyNewSegment(t *testing.T) {
	dir := t.TempDir()
	want := seedSegments(t, dir, 30)
	// Crash between create and header write: a zero-byte segment file.
	var maxIdx int
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		var idx int
		if n, _ := fmt.Sscanf(de.Name(), "seg-%d.log", &idx); n == 1 && idx > maxIdx {
			maxIdx = idx
		}
	}
	if err := os.WriteFile(segPath(dir, maxIdx+1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, dir, want)
}

func TestCrashGarbageTailEverySegment(t *testing.T) {
	dir := t.TempDir()
	want := seedSegments(t, dir, 30)
	// Pathological page-cache loss: every segment has trailing garbage.
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		path := filepath.Join(dir, de.Name())
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0xff, 0x00, 0x13, 0x37})
		f.Close()
	}
	verifyRecovered(t, dir, want)
}
