package msg

import (
	"strings"
	"testing"
)

type leased struct{ lease Lease[leased] }

// TestLease: a payload goes home once its last holder releases it and no
// cache holds it, Take hands the list back last in first out, a payload
// with no home is never recycled, and releasing a payload more often than
// it was held panics, naming its type.
func TestLease(t *testing.T) {
	var free []*leased
	p := &leased{NewLease(&free)}
	p.lease.Hold()
	p.lease.Hold()
	p.lease.Release()
	if p.lease.Home(p) || len(free) != 0 {
		t.Fatal("a payload still held went home")
	}
	p.lease.Release()
	p.lease.Cache(true)
	if p.lease.Home(p) {
		t.Fatal("a cached payload went home")
	}
	p.lease.Cache(false)
	if !p.lease.Home(p) || len(free) != 1 {
		t.Fatalf("an idle payload did not go home: free list %v", free)
	}
	q := &leased{NewLease(&free)}
	q.lease.Hold()
	q.lease.Release()
	q.lease.Home(q)
	if got := Take(&free); got != q {
		t.Fatalf("Take = %v, want the payload sent home last", got)
	}
	if got := Take(&free); got != p {
		t.Fatalf("Take = %v, want the payload sent home first", got)
	}
	if got := Take(&free); got != nil {
		t.Fatalf("Take on an empty list = %v, want nil", got)
	}

	homeless := &leased{}
	homeless.lease.Release()
	homeless.lease.Release()
	if homeless.lease.Home(homeless) {
		t.Fatal("a payload with no home went home")
	}

	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "*msg.leased released more often than held") {
			t.Fatalf("over-release recovered %q, want a panic naming the payload type", r)
		}
	}()
	p.lease.Release()
}
