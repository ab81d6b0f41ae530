package resmgr

import (
	"fmt"
	"math/rand"
	"testing"

	"dyflow/internal/cluster"
	"dyflow/internal/sim"
)

// chooser is the randomness a generated manager program draws from:
// *rand.Rand for the seeded property, fuzzBytes for the fuzz target.
type chooser interface{ Intn(n int) int }

// fuzzBytes draws choices from a byte string, then zeros once it runs out.
type fuzzBytes struct{ b []byte }

func (c *fuzzBytes) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// freeCoresNodes is the generated programs' cluster size; node IDs are
// drawn from one past it so some name no node at all.
const freeCoresNodes = 4

// genSet draws a ResourceSet of one or two entries whose counts span
// -4..20 (a DT2 node has 20 cores), so negative and zero counts occur.
func genSet(c chooser) ResourceSet {
	rs := ResourceSet{}
	for i, n := 0, 1+c.Intn(2); i < n; i++ {
		id := cluster.NodeID(fmt.Sprintf("node%03d", c.Intn(freeCoresNodes+1)))
		rs[id] = c.Intn(25) - 4
	}
	return rs
}

// runFreeCoresProgram drives a manager through steps generated operations
// (allocations, assigns, partial and full releases, node releases, health
// flips) and checks after each that FreeCores() equals the Free()
// reference, that every stored assignment entry is positive and that no
// node is assigned more cores than it has. It returns the first
// violation, or nil.
func runFreeCoresProgram(c chooser, steps int) error {
	c0 := cluster.Deepthought2(sim.New(1), freeCoresNodes)
	m := New(c0)
	owners := []string{"a", "b", "c"}
	node := func() cluster.NodeID { return cluster.NodeID(fmt.Sprintf("node%03d", c.Intn(freeCoresNodes+1))) }
	for step := 0; step < steps; step++ {
		owner := owners[c.Intn(len(owners))]
		var op string
		switch c.Intn(8) {
		case 0:
			n := 1 + c.Intn(2)
			op = fmt.Sprintf("Allocate(%d)", n)
			m.Allocate(n)
		case 1:
			rs := genSet(c)
			op = fmt.Sprintf("Assign(%s, %v)", owner, map[cluster.NodeID]int(rs))
			m.Assign(owner, rs)
		case 2:
			rs, err := m.Carve(1+c.Intn(30), c.Intn(3)*10, nil)
			op = fmt.Sprintf("Carve+Assign(%s, %v)", owner, map[cluster.NodeID]int(rs))
			if err == nil {
				m.Assign(owner, rs)
			}
		case 3:
			rs := genSet(c)
			op = fmt.Sprintf("ReleasePartial(%s, %v)", owner, map[cluster.NodeID]int(rs))
			m.ReleasePartial(owner, rs)
		case 4:
			op = fmt.Sprintf("Release(%s)", owner)
			m.Release(owner)
		case 5:
			id := node()
			op = fmt.Sprintf("ReleaseNodes(%s)", id)
			m.ReleaseNodes([]cluster.NodeID{id})
		case 6:
			id := node()
			op = fmt.Sprintf("FailNode(%s)", id)
			c0.FailNode(id)
		case 7:
			id := node()
			op = fmt.Sprintf("RestoreNode(%s)", id)
			c0.RestoreNode(id)
		}
		if want, got := m.Free().Total(), m.FreeCores(); got != want {
			return fmt.Errorf("step %d %s: FreeCores() = %d, Free().Total() = %d", step, op, got, want)
		}
		perNode := map[cluster.NodeID]int{}
		for o, rs := range m.assigned {
			for id, n := range rs {
				if n <= 0 {
					return fmt.Errorf("step %d %s: %s holds %d cores on %s", step, op, o, n, id)
				}
				perNode[id] += n
			}
		}
		for id, n := range perNode {
			if node := c0.Node(id); node == nil || n > node.Cores {
				return fmt.Errorf("step %d %s: %d cores assigned on %s", step, op, n, id)
			}
		}
	}
	return nil
}

// TestProperty_FreeCores_EqualsFree: over seeded operation sequences,
// FreeCores() — the count the arbiter reads every round — equals the
// Free() set's total after every step.
func TestProperty_FreeCores_EqualsFree(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if err := runFreeCoresProgram(rand.New(rand.NewSource(seed)), 80); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzFreeCores is TestProperty_FreeCores_EqualsFree over byte-chosen
// programs. testdata/fuzz/FuzzFreeCores holds the negative-count Assign
// that used to corrupt the assignment table.
func FuzzFreeCores(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 2, 1, 0, 3, 24, 0, 1, 1, 12, 6, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runFreeCoresProgram(&fuzzBytes{b: data}, 1+len(data)/2); err != nil {
			t.Fatal(err)
		}
	})
}
