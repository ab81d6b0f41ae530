package resmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dyflow/internal/cluster"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

func newDT2(t *testing.T, nodes int) (*sim.Sim, *cluster.Cluster, *Manager) {
	t.Helper()
	s := sim.New(1)
	c := cluster.Deepthought2(s, nodes)
	return s, c, New(c, obs.NewRegistry())
}

func TestAllocateAndFree(t *testing.T) {
	_, _, m := newDT2(t, 4)
	ids, err := m.Allocate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("granted %d nodes, want 3", len(ids))
	}
	free := m.Free()
	if free.Total() != 3*20 {
		t.Fatalf("free = %d cores, want 60", free.Total())
	}
}

// Allocate(n) with n < 0 used to grant every healthy node: the loop's
// `len(granted) == n` stop never held.
func TestAllocateRejectsNegativeCount(t *testing.T) {
	_, _, m := newDT2(t, 4)
	if ids, err := m.Allocate(-1); err == nil {
		t.Fatalf("Allocate(-1) granted %v", ids)
	}
	if got := m.AllocatedNodes(); len(got) != 0 {
		t.Fatalf("allocation = %v after Allocate(-1), want empty", got)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	_, _, m := newDT2(t, 2)
	if _, err := m.Allocate(3); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestAssignReleaseRoundTrip(t *testing.T) {
	_, _, m := newDT2(t, 2)
	m.Allocate(2)
	rs := ResourceSet{"node000": 10, "node001": 5}
	if err := m.Assign("simA", rs); err != nil {
		t.Fatal(err)
	}
	if got := m.Free().Total(); got != 40-15 {
		t.Fatalf("free after assign = %d, want 25", got)
	}
	if got := m.Assigned("simA").Total(); got != 15 {
		t.Fatalf("assigned = %d, want 15", got)
	}
	m.Release("simA")
	if got := m.Free().Total(); got != 40 {
		t.Fatalf("free after release = %d, want 40", got)
	}
	if m.Assigned("simA") != nil {
		t.Fatal("assignment should be gone after Release")
	}
}

func TestAssignOverFree(t *testing.T) {
	_, _, m := newDT2(t, 1)
	m.Allocate(1)
	if err := m.Assign("a", ResourceSet{"node000": 21}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if err := m.Assign("a", ResourceSet{"node000": 12}); err != nil {
		t.Fatal(err)
	}
	if err := m.Assign("b", ResourceSet{"node000": 9}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("double-assign err = %v, want ErrInsufficient", err)
	}
}

func TestAssignOutsideAllocation(t *testing.T) {
	_, _, m := newDT2(t, 2)
	m.Allocate(1)
	if err := m.Assign("a", ResourceSet{"node001": 1}); err == nil {
		t.Fatal("assigning outside the allocation should fail")
	}
}

func TestCarveShapes(t *testing.T) {
	_, _, m := newDT2(t, 3)
	m.Allocate(3)
	// 2 per node across 3 nodes.
	rs, err := m.Carve(6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total() != 6 || len(rs) != 3 {
		t.Fatalf("carve = %v", rs)
	}
	for _, n := range rs {
		if n != 2 {
			t.Fatalf("per-node shape violated: %v", rs)
		}
	}
	// Unlimited per node: spreads round-robin across nodes.
	rs2, err := m.Carve(15, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs2["node000"] != 5 || rs2["node001"] != 5 || rs2["node002"] != 5 {
		t.Fatalf("spreading carve = %v, want 5 per node", rs2)
	}
}

func TestCarveExcludesNodes(t *testing.T) {
	_, _, m := newDT2(t, 2)
	m.Allocate(2)
	rs, err := m.Carve(20, 0, []cluster.NodeID{"node000"})
	if err != nil {
		t.Fatal(err)
	}
	if rs["node001"] != 20 || rs["node000"] != 0 {
		t.Fatalf("carve = %v, want all on node001", rs)
	}
}

func TestCarveInsufficient(t *testing.T) {
	_, _, m := newDT2(t, 1)
	m.Allocate(1)
	if _, err := m.Carve(21, 0, nil); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestNodeFailureTrimsAssignments(t *testing.T) {
	_, c, m := newDT2(t, 2)
	m.Allocate(2)
	m.Assign("sim", ResourceSet{"node000": 10, "node001": 10})
	m.Assign("ana", ResourceSet{"node000": 5})

	type loss struct {
		owner string
		node  cluster.NodeID
		lost  int
	}
	var losses []loss
	m.OnResourceLoss(func(owner string, node cluster.NodeID, lost int) {
		losses = append(losses, loss{owner, node, lost})
	})
	c.FailNode("node000")

	if len(losses) != 2 {
		t.Fatalf("losses = %v, want 2 owners notified", losses)
	}
	// Sorted owner order: ana before sim.
	if losses[0].owner != "ana" || losses[0].lost != 5 {
		t.Fatalf("losses[0] = %+v", losses[0])
	}
	if losses[1].owner != "sim" || losses[1].lost != 10 {
		t.Fatalf("losses[1] = %+v", losses[1])
	}
	if got := m.Assigned("sim").Total(); got != 10 {
		t.Fatalf("sim assignment after failure = %d, want 10 (node001 only)", got)
	}
	// The failed node contributes no free cores.
	if free := m.Free(); free["node000"] != 0 {
		t.Fatalf("free on failed node = %d, want 0", free["node000"])
	}
	if got := m.UnhealthyNodes(); len(got) != 1 || got[0] != "node000" {
		t.Fatalf("unhealthy = %v", got)
	}
}

func TestReleaseNodesGuard(t *testing.T) {
	_, _, m := newDT2(t, 2)
	m.Allocate(2)
	m.Assign("a", ResourceSet{"node000": 1})
	if err := m.ReleaseNodes([]cluster.NodeID{"node000"}); err == nil {
		t.Fatal("releasing an assigned node should fail")
	}
	if err := m.ReleaseNodes([]cluster.NodeID{"node001"}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.AllocatedNodes()); got != 1 {
		t.Fatalf("allocation size = %d, want 1", got)
	}
}

// Property: any sequence of valid assign/release operations conserves cores:
// free + sum(assigned) == healthy allocated capacity, and free is never
// negative anywhere.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		s := sim.New(seed)
		c := cluster.Deepthought2(s, 4)
		m := New(c, obs.NewRegistry())
		m.Allocate(4)
		owners := []string{"a", "b", "c"}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range opsRaw {
			owner := owners[int(op)%len(owners)]
			switch (op / 8) % 2 {
			case 0: // assign a random carve
				total := rng.Intn(10) + 1
				rs, err := m.Carve(total, 0, nil)
				if err == nil {
					if err := m.Assign(owner, rs); err != nil {
						return false
					}
				}
			case 1:
				m.Release(owner)
			}
			// Invariants.
			capacity := 4 * 20
			total := m.Free().Total()
			for _, o := range owners {
				total += m.Assigned(o).Total()
			}
			if total != capacity {
				return false
			}
			for _, n := range m.Free() {
				if n < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A negative count used to pass Assign's `free < n` check and shrink the
// owner's assignment below zero, inflating free capacity. Assign now
// refuses it and leaves the manager untouched, and zero counts are not
// stored.
func TestAssignRejectsNegativeCounts(t *testing.T) {
	_, _, m := newDT2(t, 2)
	if _, err := m.Allocate(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Assign("a", ResourceSet{"node000": 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.Assign("b", ResourceSet{"node000": -5}); err == nil {
		t.Fatal("Assign accepted a negative core count")
	}
	if got := m.Assigned("a"); got.Total() != 10 || len(got) != 1 {
		t.Fatalf("a's assignment = %v, want node000:10 untouched", got)
	}
	if m.Assigned("b") != nil {
		t.Fatalf("b's assignment = %v, want none", m.Assigned("b"))
	}
	if free := m.Free().Total(); free != 30 {
		t.Fatalf("free = %d, want 30", free)
	}
	if err := m.Assign("b", ResourceSet{"node000": 0, "node001": 4}); err != nil {
		t.Fatal(err)
	}
	if got := m.Assigned("b"); len(got) != 1 || got["node001"] != 4 {
		t.Fatalf("b's assignment = %v, want node001:4 only (zero entry skipped)", got)
	}
}

// ReleaseNodes must refuse node IDs that were never part of the allocation
// — silently "releasing" a foreign node hides caller bookkeeping bugs.
func TestReleaseNodesRejectsForeignNode(t *testing.T) {
	_, _, m := newDT2(t, 4)
	if _, err := m.Allocate(2); err != nil {
		t.Fatal(err)
	}
	err := m.ReleaseNodes([]cluster.NodeID{"node000", "node007"})
	if err == nil {
		t.Fatal("releasing a foreign node must fail")
	}
	if !strings.Contains(err.Error(), "node007") {
		t.Fatalf("error %q must name the foreign node", err)
	}
	// The failed call must not have released the legitimate node either.
	if m.Free().Total() != 40 {
		t.Fatalf("free = %d, want allocation untouched (40)", m.Free().Total())
	}
}

func TestFaultsInjectCarveFailures(t *testing.T) {
	_, _, m := newDT2(t, 2)
	if _, err := m.Allocate(2); err != nil {
		t.Fatal(err)
	}
	f := NewFaults(42, 1.0)
	m.InjectFaults(f)
	if _, err := m.Carve(10, 0, nil); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want injected ErrInsufficient", err)
	} else if want := fmt.Errorf("%w: injected carve fault", ErrInsufficient).Error(); err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	if f.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", f.Injected())
	}
	// Detaching (or a nil injector) restores normal carving.
	m.InjectFaults(nil)
	if _, err := m.Carve(10, 0, nil); err != nil {
		t.Fatalf("carve after detach: %v", err)
	}
}

// Two injectors with the same seed must trip on exactly the same draws.
func TestFaultsDeterministicAcrossRuns(t *testing.T) {
	trips := func(seed int64) []bool {
		f := NewFaults(seed, 0.3)
		out := make([]bool, 50)
		for i := range out {
			out[i] = f.tripCarve()
		}
		return out
	}
	a, b := trips(7), trips(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically-seeded injectors", i)
		}
	}
	fired := 0
	for _, v := range a {
		if v {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("fired = %d/50, want a nontrivial mix at prob 0.3", fired)
	}
}

// The ledger's cost does not grow with the allocation: with metrics
// attached, a warm Assign and Release of a fixed two-node set makes two
// allocations (the owner's set) at 8 allocated nodes and at 256, and
// FreeCores makes none. Before the ledger, every Assign and Release built
// a per-node map of the whole allocation for its gauges, and Assign the
// whole Free() set: 2 allocations at 8 nodes, 15 at 256.
func TestLedgerAllocationsIndependentOfAllocationSize(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, nodes := range []int{8, 256} {
		_, _, m := newDT2(t, nodes)
		if _, err := m.Allocate(nodes); err != nil {
			t.Fatal(err)
		}
		rs := ResourceSet{"node000": 4, "node001": 4}
		ar := testing.AllocsPerRun(100, func() {
			if err := m.Assign("a", rs); err != nil {
				t.Fatal(err)
			}
			m.Release("a")
		})
		fc := testing.AllocsPerRun(100, func() { m.FreeCores() })
		if ar != 2 || fc != 0 {
			t.Fatalf("at %d nodes: Assign+Release makes %v allocations, FreeCores %v; want 2 and 0", nodes, ar, fc)
		}
	}
}
