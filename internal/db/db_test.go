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

// TestRetentionBound: a key holds only its newest record.
func TestRetentionBound(t *testing.T) {
	s := sim.New(1)
	svc := New(s)
	for i := 1; i <= 300; i++ {
		svc.Put("k", i, float64(i))
	}
	if rec, ok := svc.Latest("k"); !ok || rec.Step != 300 || len(svc.latest) != 1 {
		t.Fatalf("latest = %+v, %v over %d keys; want step 300 under one key", rec, ok, len(svc.latest))
	}
}

func TestKeys(t *testing.T) {
	s := sim.New(1)
	svc := New(s)
	svc.Put("b", 1, 1)
	svc.Put("a", 1, 1)
	svc.Put("a", 2, 5)
	if len(svc.latest) != 2 || svc.latest["a"].Step != 2 || svc.latest["b"].Step != 1 {
		t.Fatalf("latest = %v", svc.latest)
	}
}
