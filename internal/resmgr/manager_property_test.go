package resmgr

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dyflow/internal/cluster"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// The reference below is Manager as it was before the per-node core
// ledger: the allocation is a set, and every reader re-derives a node's
// use from the owners' assignments (Free, FreeCores, publishGauges,
// ReleaseNodes), with Carve and Assign building the whole Free() set.
// TestProperty_Manager_EqualsParent and FuzzFreeCores check Manager
// against it.
type parentManager struct {
	cluster        *cluster.Cluster
	alloc          map[cluster.NodeID]bool
	assigned       map[string]ResourceSet
	onResourceLoss func(owner string, node cluster.NodeID, lost int)
	metrics        metrics
}

func newParent(c *cluster.Cluster, reg *obs.Registry) *parentManager {
	m := &parentManager{
		cluster:  c,
		alloc:    make(map[cluster.NodeID]bool),
		assigned: make(map[string]ResourceSet),
		metrics: metrics{
			allocated:     reg.Gauge("dyflow_resmgr_allocated_nodes", "Whole nodes in the job allocation.").With(),
			unhealthy:     reg.Gauge("dyflow_resmgr_unhealthy_nodes", "Allocated nodes currently out of service.").With(),
			freeCores:     reg.Gauge("dyflow_resmgr_free_cores", "Healthy unassigned cores within the allocation.").With(),
			assignedCores: reg.Gauge("dyflow_resmgr_assigned_cores", "Cores currently assigned to owners.").With(),
			nodeAssigned:  reg.Gauge("dyflow_resmgr_node_assigned_cores", "Cores assigned per node.", "node"),
			carves:        reg.Counter("dyflow_resmgr_carves_total", "Successful carve operations.").With(),
			carveFailures: reg.Counter("dyflow_resmgr_carve_failures_total", "Carve operations that failed for lack of resources.").With(),
			injected:      reg.Counter("dyflow_resmgr_injected_faults_total", "Chaos-injected transient carve faults.").With(),
		},
	}
	c.OnHealthChange(m.healthChanged)
	return m
}

func (m *parentManager) publishGauges() {
	mm := &m.metrics
	unhealthy := 0
	for id := range m.alloc {
		if n := m.cluster.Node(id); n == nil || !n.Healthy() {
			unhealthy++
		}
	}
	assignedTotal := 0
	perNode := make(map[cluster.NodeID]int)
	for _, rs := range m.assigned {
		for id, n := range rs {
			assignedTotal += n
			perNode[id] += n
		}
	}
	mm.allocated.Set(float64(len(m.alloc)))
	mm.unhealthy.Set(float64(unhealthy))
	mm.freeCores.Set(float64(m.FreeCores()))
	mm.assignedCores.Set(float64(assignedTotal))
	for id := range m.alloc {
		mm.nodeAssigned.With(string(id)).Set(float64(perNode[id]))
	}
	for id, n := range perNode {
		if !m.alloc[id] {
			mm.nodeAssigned.With(string(id)).Set(float64(n))
		}
	}
}

func (m *parentManager) OnResourceLoss(fn func(owner string, node cluster.NodeID, lost int)) {
	m.onResourceLoss = fn
}

func (m *parentManager) healthChanged(n *cluster.Node, healthy bool) {
	if !m.alloc[n.ID] {
		return
	}
	defer m.publishGauges()
	if healthy {
		return
	}
	var owners []string
	for owner, rs := range m.assigned {
		if rs[n.ID] > 0 {
			owners = append(owners, owner)
		}
	}
	sort.Strings(owners)
	for _, owner := range owners {
		lost := m.assigned[owner][n.ID]
		delete(m.assigned[owner], n.ID)
		if m.onResourceLoss != nil {
			m.onResourceLoss(owner, n.ID, lost)
		}
	}
}

func (m *parentManager) Allocate(n int) ([]cluster.NodeID, error) {
	var granted []cluster.NodeID
	for _, node := range m.cluster.HealthyNodes() {
		if len(granted) == n {
			break
		}
		if !m.alloc[node.ID] {
			granted = append(granted, node.ID)
		}
	}
	if len(granted) < n {
		return nil, fmt.Errorf("%w: requested %d nodes, %d available", ErrInsufficient, n, len(granted))
	}
	for _, id := range granted {
		m.alloc[id] = true
	}
	m.publishGauges()
	return granted, nil
}

func (m *parentManager) ReleaseNodes(ids []cluster.NodeID) error {
	for _, id := range ids {
		if !m.alloc[id] {
			return fmt.Errorf("resmgr: node %s is not in the allocation", id)
		}
		for owner, rs := range m.assigned {
			if rs[id] > 0 {
				return fmt.Errorf("resmgr: node %s still assigned to %q", id, owner)
			}
		}
	}
	for _, id := range ids {
		delete(m.alloc, id)
	}
	m.publishGauges()
	return nil
}

func (m *parentManager) AllocatedNodes() []cluster.NodeID {
	ids := make([]cluster.NodeID, 0, len(m.alloc))
	for id := range m.alloc {
		ids = append(ids, id)
	}
	return cluster.SortNodeIDs(ids)
}

func (m *parentManager) Free() ResourceSet {
	free := make(ResourceSet)
	for id := range m.alloc {
		node := m.cluster.Node(id)
		if node == nil || !node.Healthy() {
			continue
		}
		free[id] = node.Cores
	}
	for _, rs := range m.assigned {
		for id, n := range rs {
			free[id] -= n
			if free[id] <= 0 {
				delete(free, id)
			}
		}
	}
	return free
}

func (m *parentManager) FreeCores() int {
	total := 0
	for id := range m.alloc {
		node := m.cluster.Node(id)
		if node == nil || !node.Healthy() {
			continue
		}
		free := node.Cores
		for _, rs := range m.assigned {
			free -= rs[id]
		}
		if free > 0 {
			total += free
		}
	}
	return total
}

func (m *parentManager) Assigned(owner string) ResourceSet {
	rs, ok := m.assigned[owner]
	if !ok {
		return nil
	}
	return maps.Clone(rs)
}

func (m *parentManager) Owners() []string {
	var out []string
	for owner, rs := range m.assigned {
		if rs.Total() > 0 {
			out = append(out, owner)
		}
	}
	sort.Strings(out)
	return out
}

func (m *parentManager) Assign(owner string, rs ResourceSet) error {
	if err := checkCounts(rs); err != nil {
		return err
	}
	free := m.Free()
	for id, n := range rs {
		if n == 0 {
			continue
		}
		if !m.alloc[id] {
			return fmt.Errorf("resmgr: node %s is outside the allocation", id)
		}
		if free[id] < n {
			return fmt.Errorf("%w: %d cores on %s requested, %d free", ErrInsufficient, n, id, free[id])
		}
	}
	cur, ok := m.assigned[owner]
	if !ok {
		cur = make(ResourceSet)
		m.assigned[owner] = cur
	}
	for id, n := range rs {
		if n > 0 {
			cur[id] += n
		}
	}
	m.publishGauges()
	return nil
}

func (m *parentManager) Release(owner string) {
	delete(m.assigned, owner)
	m.publishGauges()
}

func (m *parentManager) Carve(total, perNode int, exclude []cluster.NodeID) (ResourceSet, error) {
	if total <= 0 {
		return ResourceSet{}, nil
	}
	skip := make(map[cluster.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	free := m.Free()
	var nodes []cluster.NodeID
	for _, id := range free.Nodes() {
		if !skip[id] {
			nodes = append(nodes, id)
		}
	}
	out := make(ResourceSet)
	remaining := total
	if perNode > 0 {
		for _, id := range nodes {
			n := free[id]
			if n > perNode {
				n = perNode
			}
			if n > remaining {
				n = remaining
			}
			if n <= 0 {
				continue
			}
			out[id] = n
			remaining -= n
			if remaining == 0 {
				m.metrics.carves.Inc()
				return out, nil
			}
		}
	} else {
		for remaining > 0 {
			progressed := false
			for _, id := range nodes {
				if remaining == 0 {
					break
				}
				if out[id] < free[id] {
					out[id]++
					remaining--
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		if remaining == 0 {
			m.metrics.carves.Inc()
			return out, nil
		}
	}
	m.metrics.carveFailures.Inc()
	return nil, fmt.Errorf("%w: carve %d cores (per-node %d), %d short", ErrInsufficient, total, perNode, remaining)
}

// UnhealthyNodes is what the parent's Status reported as unhealthy.
func (m *parentManager) UnhealthyNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for _, id := range m.AllocatedNodes() {
		if n := m.cluster.Node(id); n != nil && !n.Healthy() {
			out = append(out, id)
		}
	}
	return out
}

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

// programNodes is the generated programs' cluster size; node IDs are
// drawn from one past it so some name no node at all.
const programNodes = 4

// genSet draws a ResourceSet of one or two entries whose counts span
// -4..20 (a DT2 node has 20 cores), so negative and zero counts occur.
func genSet(c chooser) ResourceSet {
	rs := ResourceSet{}
	for i, n := 0, 1+c.Intn(2); i < n; i++ {
		id := cluster.NodeID(fmt.Sprintf("node%03d", c.Intn(programNodes+1)))
		rs[id] = c.Intn(25) - 4
	}
	return rs
}

// errClass is what a program compares of an error: whether there is one,
// and whether it is ErrInsufficient.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInsufficient):
		return "insufficient"
	}
	return "error"
}

// lossLog records OnResourceLoss calls in order.
type lossLog []string

func (l *lossLog) record(owner string, node cluster.NodeID, lost int) {
	*l = append(*l, fmt.Sprintf("%s@%s:%d", owner, node, lost))
}

// exposition renders a registry in the Prometheus text format.
func exposition(reg *obs.Registry) string {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// runManagerProgram drives a Manager and the parentManager reference over
// one cluster through steps generated operations — allocations, assigns,
// carves that are then assigned, owner and node releases and health
// flips — and after each step compares everything a caller
// or a scrape can observe: Free, FreeCores, AllocatedNodes, Owners, every
// owner's assignment, Status, the call's error class, the carved set, the
// OnResourceLoss calls and the full dyflow_resmgr_* exposition. It also
// checks the ledger against the owners' sets. It returns the first
// difference, or nil.
func runManagerProgram(c chooser, steps int) error {
	cl := cluster.Deepthought2(sim.New(1), programNodes)
	reg, refReg := obs.NewRegistry(), obs.NewRegistry()
	m, ref := New(cl, reg), newParent(cl, refReg)
	var losses, refLosses lossLog
	m.OnResourceLoss(losses.record)
	ref.OnResourceLoss(refLosses.record)
	owners := []string{"a", "b", "c"}
	node := func() cluster.NodeID { return cluster.NodeID(fmt.Sprintf("node%03d", c.Intn(programNodes+1))) }
	for step := 0; step < steps; step++ {
		owner := owners[c.Intn(len(owners))]
		var op string
		var got, want error
		exactClass := true
		switch c.Intn(7) {
		case 0:
			n := c.Intn(3)
			op = fmt.Sprintf("Allocate(%d)", n)
			ids, err := m.Allocate(n)
			refIDs, refErr := ref.Allocate(n)
			if !reflect.DeepEqual(ids, refIDs) {
				return fmt.Errorf("step %d %s: granted %v, reference %v", step, op, ids, refIDs)
			}
			got, want = err, refErr
		case 1:
			rs := genSet(c)
			op = fmt.Sprintf("Assign(%s, %v)", owner, map[cluster.NodeID]int(rs))
			got, want = m.Assign(owner, rs), ref.Assign(owner, rs)
			// With two failing entries, which error comes first
			// depends on map order, in the reference as well.
			exactClass = len(rs) == 1
		case 2:
			total, perNode := 1+c.Intn(30), c.Intn(3)*10
			var exclude []cluster.NodeID
			if c.Intn(2) == 1 {
				exclude = append(exclude, node())
			}
			op = fmt.Sprintf("Carve(%d, %d, %v)+Assign(%s)", total, perNode, exclude, owner)
			rs, err := m.Carve(total, perNode, exclude)
			refRS, refErr := ref.Carve(total, perNode, exclude)
			if !reflect.DeepEqual(rs, refRS) {
				return fmt.Errorf("step %d %s: carved %v, reference %v", step, op, rs, refRS)
			}
			if err != nil && refErr != nil && err.Error() != refErr.Error() {
				return fmt.Errorf("step %d %s: error %q, reference %q", step, op, err, refErr)
			}
			if got, want = err, refErr; err == nil && refErr == nil {
				got, want = m.Assign(owner, rs), ref.Assign(owner, refRS)
			}
		case 3:
			op = fmt.Sprintf("Release(%s)", owner)
			m.Release(owner)
			ref.Release(owner)
		case 4:
			ids := []cluster.NodeID{node()}
			if c.Intn(2) == 1 {
				ids = append(ids, node())
			}
			op = fmt.Sprintf("ReleaseNodes(%v)", ids)
			got, want = m.ReleaseNodes(ids), ref.ReleaseNodes(ids)
		case 5:
			id := node()
			op = fmt.Sprintf("FailNode(%s)", id)
			cl.FailNode(id)
		case 6:
			id := node()
			op = fmt.Sprintf("RestoreNode(%s)", id)
			cl.RestoreNode(id)
		}
		if (got == nil) != (want == nil) || exactClass && errClass(got) != errClass(want) {
			return fmt.Errorf("step %d %s: error %v, reference %v", step, op, got, want)
		}
		if err := sameManager(m, ref); err != nil {
			return fmt.Errorf("step %d %s: %v", step, op, err)
		}
		if !reflect.DeepEqual(losses, refLosses) {
			return fmt.Errorf("step %d %s: resource losses %v, reference %v", step, op, losses, refLosses)
		}
		if e, r := exposition(reg), exposition(refReg); e != r {
			return fmt.Errorf("step %d %s: exposition\n%s\nreference\n%s", step, op, e, r)
		}
		if err := checkLedger(m); err != nil {
			return fmt.Errorf("step %d %s: %v", step, op, err)
		}
	}
	return nil
}

// sameManager compares every query of m with the reference's.
func sameManager(m *Manager, ref *parentManager) error {
	if got, want := m.Free(), ref.Free(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Free() = %v, reference %v", got, want)
	}
	if got, want := m.FreeCores(), ref.FreeCores(); got != want {
		return fmt.Errorf("FreeCores() = %d, reference %d", got, want)
	}
	if got, want := m.FreeCores(), m.Free().Total(); got != want {
		return fmt.Errorf("FreeCores() = %d, Free().Total() = %d", got, want)
	}
	if got, want := m.AllocatedNodes(), ref.AllocatedNodes(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("AllocatedNodes() = %v, reference %v", got, want)
	}
	if got, want := m.Owners(), ref.Owners(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Owners() = %v, reference %v", got, want)
	}
	for _, o := range []string{"a", "b", "c"} {
		if got, want := m.Assigned(o), ref.Assigned(o); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Assigned(%s) = %v, reference %v", o, got, want)
		}
	}
	if got, want := m.UnhealthyNodes(), ref.UnhealthyNodes(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("UnhealthyNodes() = %v, reference %v", got, want)
	}
	return nil
}

// checkLedger checks the manager's own invariants: every stored
// assignment entry is positive, the ledger holds the owners' sets summed
// per node, no node is assigned more cores than it has, and the sorted
// node list names exactly the ledger's nodes.
func checkLedger(m *Manager) error {
	perNode := map[cluster.NodeID]int{}
	for o, rs := range m.assigned {
		for id, n := range rs {
			if n <= 0 {
				return fmt.Errorf("%s holds %d cores on %s", o, n, id)
			}
			perNode[id] += n
		}
	}
	for id, n := range perNode {
		if node := m.cluster.Node(id); node == nil || n > node.Cores {
			return fmt.Errorf("%d cores assigned on %s", n, id)
		}
	}
	if len(m.nodes) != len(m.used) || !slices.IsSorted(m.nodes) {
		return fmt.Errorf("node list %v does not match the ledger %v", m.nodes, m.used)
	}
	for _, id := range m.nodes {
		if used, ok := m.used[id]; !ok || used != perNode[id] {
			return fmt.Errorf("ledger holds %d cores on %s, owners hold %d", used, id, perNode[id])
		}
	}
	return nil
}

// TestProperty_Manager_EqualsParent: over seeded operation sequences, the
// ledger-backed Manager answers every query, fails every call and
// publishes every gauge exactly as the reference that re-derives a node's
// use from the owners' sets.
func TestProperty_Manager_EqualsParent(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if err := runManagerProgram(rand.New(rand.NewSource(seed)), 80); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzFreeCores is TestProperty_Manager_EqualsParent over byte-chosen
// programs. testdata/fuzz/FuzzFreeCores holds the negative-count Assign
// that used to corrupt the assignment table.
func FuzzFreeCores(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 2, 1, 0, 3, 24, 0, 1, 1, 12, 6, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runManagerProgram(&fuzzBytes{b: data}, 1+len(data)/2); err != nil {
			t.Fatal(err)
		}
	})
}
