package db

import (
	"testing"
	"time"

	"dyflow/internal/sim"
)

func TestPutLatest(t *testing.T) {
	s := sim.New(1)
	svc := New(s)
	if _, ok := svc.Latest("pace"); ok {
		t.Fatal("empty key should have no record")
	}
	s.After(time.Second, func() { svc.Put("pace", 1, 30) })
	s.After(2*time.Second, func() { svc.Put("pace", 2, 31) })
	s.RunUntilIdle()
	rec, ok := svc.Latest("pace")
	if !ok || rec.Step != 2 || rec.Value != 31 || rec.At != 2*time.Second {
		t.Fatalf("latest = %+v, %v", rec, ok)
	}
}

func TestSince(t *testing.T) {
	s := sim.New(1)
	svc := New(s)
	for i := 1; i <= 10; i++ {
		svc.Put("k", i, float64(i))
	}
	got := svc.Since("k", 7)
	if len(got) != 3 || got[0].Step != 8 || got[2].Step != 10 {
		t.Fatalf("since = %+v", got)
	}
	if len(svc.Since("k", 100)) != 0 {
		t.Fatal("since beyond end should be empty")
	}
	if len(svc.Since("nope", 0)) != 0 {
		t.Fatal("unknown key should be empty")
	}
}

func TestRetentionBound(t *testing.T) {
	s := sim.New(1)
	svc := New(s)
	for i := 1; i <= keep+6; i++ {
		svc.Put("k", i, float64(i))
	}
	got := svc.Since("k", 0)
	if len(got) != keep || got[0].Step != 7 {
		t.Fatalf("retained %d records, want the newest %d from step 7", len(got), keep)
	}
}

func TestKeysAndStats(t *testing.T) {
	s := sim.New(1)
	svc := New(s)
	svc.Put("b", 1, 1)
	svc.Put("a", 1, 1)
	if len(svc.series) != 2 || svc.series["a"] == nil || svc.series["b"] == nil {
		t.Fatalf("series = %v", svc.series)
	}
	svc.Latest("a")
	w, q := svc.Stats()
	if w != 2 || q != 1 {
		t.Fatalf("stats = %d writes, %d queries", w, q)
	}
}
