// Package resmgr implements the resource-management substrate DYFLOW's
// Arbitration stage plans against: a job-level allocation of cluster nodes,
// core-granular assignment of those nodes to workflow tasks, node-health
// tracking, and on-demand requests for extra nodes.
//
// In the paper this role is split between the cluster batch scheduler
// (LSF/Slurm) and Savanna; here both halves are provided by Manager so that
// Arbitration's low-level operations (`request_resources`,
// `release_resources`, `get_resource_status`) have a concrete backend.
//
// Manager keeps one per-node core ledger: for every allocated node, the
// cores assigned there summed over owners. Every reader of "what is
// allocated" or "what is free" reads it, and every change to an
// assignment goes through one helper that moves the owner's set, the
// node's total and the node's gauge together, so no query re-derives a
// node's use from the owners' sets.
package resmgr

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"dyflow/internal/cluster"
	"dyflow/internal/obs"
)

// ResourceSet maps node IDs to a number of CPU cores on that node. It is the
// currency of every assignment operation: free capacity, per-task
// assignments, and Arbitration's revised assignments are all ResourceSets.
type ResourceSet map[cluster.NodeID]int

// Total returns the total core count across nodes.
func (rs ResourceSet) Total() int {
	t := 0
	for _, n := range rs {
		t += n
	}
	return t
}

// Nodes returns the node IDs in sorted order.
func (rs ResourceSet) Nodes() []cluster.NodeID {
	ids := make([]cluster.NodeID, 0, len(rs))
	for id := range rs {
		ids = append(ids, id)
	}
	return cluster.SortNodeIDs(ids)
}

// String renders the set as "node000:4+node001:4" in sorted node order.
func (rs ResourceSet) String() string {
	if len(rs) == 0 {
		return "∅"
	}
	var parts []string
	for _, id := range rs.Nodes() {
		parts = append(parts, fmt.Sprintf("%s:%d", id, rs[id]))
	}
	return strings.Join(parts, "+")
}

// ErrInsufficient is returned when a carve or assignment cannot be satisfied
// from the available resources.
var ErrInsufficient = errors.New("resmgr: insufficient resources")

// carveError is a failed Carve: short of total cores (perNode per node)
// could not be carved, or an injected carve fault. It is ErrInsufficient
// and formats its text only when Error is called, so a caller that
// retries a carve and drops the error formats nothing.
type carveError struct {
	total, perNode, short int
	injected              bool
}

func (e *carveError) Error() string {
	if e.injected {
		return ErrInsufficient.Error() + ": injected carve fault"
	}
	return fmt.Sprintf("%v: carve %d cores (per-node %d), %d short", ErrInsufficient, e.total, e.perNode, e.short)
}

// Unwrap makes a carveError ErrInsufficient to errors.Is.
func (e *carveError) Unwrap() error { return ErrInsufficient }

// Manager tracks one job allocation on a cluster and the core-level
// assignment of that allocation to named owners (workflow task instances).
type Manager struct {
	cluster *cluster.Cluster
	// used is the core ledger: used[id] is the cores assigned on node id,
	// summed over owners. A node is in the job's allocation (whole nodes)
	// exactly when it has an entry.
	used map[cluster.NodeID]int
	// nodes is the allocation's node IDs, sorted when nodes are allocated
	// or released.
	nodes []cluster.NodeID
	// assigned[owner] is the owner's current ResourceSet. Its entries
	// change only through shift, which keeps used in step.
	assigned map[string]ResourceSet
	// onResourceLoss, if set, is invoked when a node in the allocation
	// fails, once per owner that held cores on it.
	onResourceLoss func(owner string, node cluster.NodeID, lost int)
	// faults, if set, injects deterministic transient failures (chaos
	// testing).
	faults *Faults
	// metrics publishes utilization gauges and carve counters.
	metrics metrics
}

// metrics holds the manager's registry handles; gauges are re-published
// eagerly at every mutation point rather than computed at scrape time, so
// scraping never reads live manager state from another goroutine.
type metrics struct {
	allocated     *obs.Gauge
	unhealthy     *obs.Gauge
	freeCores     *obs.Gauge
	assignedCores *obs.Gauge
	nodeAssigned  *obs.GaugeVec
	carves        *obs.Counter
	carveFailures *obs.Counter
	injected      *obs.Counter
}

// newMetrics registers the resmgr gauge and counter families.
func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		allocated:     reg.Gauge("dyflow_resmgr_allocated_nodes", "Whole nodes in the job allocation.").With(),
		unhealthy:     reg.Gauge("dyflow_resmgr_unhealthy_nodes", "Allocated nodes currently out of service.").With(),
		freeCores:     reg.Gauge("dyflow_resmgr_free_cores", "Healthy unassigned cores within the allocation.").With(),
		assignedCores: reg.Gauge("dyflow_resmgr_assigned_cores", "Cores currently assigned to owners.").With(),
		nodeAssigned:  reg.Gauge("dyflow_resmgr_node_assigned_cores", "Cores assigned per node.", "node"),
		carves:        reg.Counter("dyflow_resmgr_carves_total", "Successful carve operations.").With(),
		carveFailures: reg.Counter("dyflow_resmgr_carve_failures_total", "Carve operations that failed for lack of resources.").With(),
		injected:      reg.Counter("dyflow_resmgr_injected_faults_total", "Chaos-injected transient carve faults.").With(),
	}
}

// publishGauges pushes the allocation-wide gauges. Called after every
// mutation. Per-node gauges are pushed by publishNode as each node's
// ledger entry changes.
func (m *Manager) publishGauges() {
	mm := &m.metrics
	unhealthy, assigned := 0, 0
	for _, id := range m.nodes {
		if n := m.cluster.Node(id); n == nil || !n.Healthy() {
			unhealthy++
		}
		assigned += m.used[id]
	}
	mm.allocated.Set(float64(len(m.nodes)))
	mm.unhealthy.Set(float64(unhealthy))
	mm.freeCores.Set(float64(m.FreeCores()))
	mm.assignedCores.Set(float64(assigned))
}

// publishNode pushes node id's ledger entry to its gauge.
func (m *Manager) publishNode(id cluster.NodeID) {
	m.metrics.nodeAssigned.With(string(id)).Set(float64(m.used[id]))
}

// shift changes owner set cur's cores on node id by delta, together with
// the node's ledger entry and gauge. It is the only way an assignment
// changes, so the ledger always equals the owners' sets summed per node.
func (m *Manager) shift(cur ResourceSet, id cluster.NodeID, delta int) {
	if cur[id] += delta; cur[id] == 0 {
		delete(cur, id)
	}
	m.used[id] += delta
	m.publishNode(id)
}

// New creates a manager over c with an empty allocation, publishing into
// reg, and subscribes to node-health changes.
func New(c *cluster.Cluster, reg *obs.Registry) *Manager {
	m := &Manager{
		cluster:  c,
		used:     make(map[cluster.NodeID]int),
		assigned: make(map[string]ResourceSet),
		metrics:  newMetrics(reg),
	}
	c.OnHealthChange(m.healthChanged)
	return m
}

// OnResourceLoss registers the callback invoked when an allocated node
// fails while owners hold cores on it.
func (m *Manager) OnResourceLoss(fn func(owner string, node cluster.NodeID, lost int)) {
	m.onResourceLoss = fn
}

// allocated reports whether node id is in the job's allocation.
func (m *Manager) allocated(id cluster.NodeID) bool {
	_, ok := m.used[id]
	return ok
}

// freeOn returns the healthy unassigned cores on allocated node id: none
// on a node out of service.
func (m *Manager) freeOn(id cluster.NodeID) int {
	n := m.cluster.Node(id)
	if n == nil || !n.Healthy() {
		return 0
	}
	return max(0, n.Cores-m.used[id])
}

func (m *Manager) healthChanged(n *cluster.Node, healthy bool) {
	used, ok := m.used[n.ID]
	if !ok {
		return
	}
	defer m.publishGauges()
	if healthy || used == 0 {
		return
	}
	// A node in our allocation died: every owner with cores there loses
	// them. Assignments are trimmed; owners are notified in sorted order.
	var owners []string
	for owner, rs := range m.assigned {
		if rs[n.ID] > 0 {
			owners = append(owners, owner)
		}
	}
	slices.Sort(owners)
	for _, owner := range owners {
		cur := m.assigned[owner]
		lost := cur[n.ID]
		if lost > 0 { // an earlier owner's callback may have released this one
			m.shift(cur, n.ID, -lost)
		}
		if m.onResourceLoss != nil {
			m.onResourceLoss(owner, n.ID, lost)
		}
	}
}

// Allocate grants n whole healthy nodes (not yet allocated) to the job,
// modelling the initial batch-scheduler allocation. It returns the granted
// node IDs in deterministic order.
func (m *Manager) Allocate(n int) ([]cluster.NodeID, error) {
	if n < 0 {
		return nil, fmt.Errorf("resmgr: cannot allocate %d nodes", n)
	}
	var granted []cluster.NodeID
	for _, node := range m.cluster.HealthyNodes() {
		if len(granted) == n {
			break
		}
		if !m.allocated(node.ID) {
			granted = append(granted, node.ID)
		}
	}
	if len(granted) < n {
		return nil, fmt.Errorf("%w: requested %d nodes, %d available", ErrInsufficient, n, len(granted))
	}
	for _, id := range granted {
		m.used[id] = 0
		m.publishNode(id)
	}
	m.nodes = append(m.nodes, granted...)
	slices.Sort(m.nodes)
	m.publishGauges()
	return granted, nil
}

// ReleaseNodes returns whole nodes to the cluster. Nodes with assigned
// cores cannot be released, and neither can nodes that were never part of
// the allocation — silently "releasing" a foreign node would hide a
// bookkeeping bug in the caller. The allocation is modified only when
// every requested node is releasable.
func (m *Manager) ReleaseNodes(ids []cluster.NodeID) error {
	for _, id := range ids {
		used, ok := m.used[id]
		if !ok {
			return fmt.Errorf("resmgr: node %s is not in the allocation", id)
		}
		if used > 0 {
			return fmt.Errorf("resmgr: node %s still has %d cores assigned", id, used)
		}
	}
	for _, id := range ids {
		delete(m.used, id)
	}
	m.nodes = slices.DeleteFunc(m.nodes, func(id cluster.NodeID) bool { return !m.allocated(id) })
	m.publishGauges()
	return nil
}

// AllocatedNodes returns the job's node IDs in sorted order.
func (m *Manager) AllocatedNodes() []cluster.NodeID {
	return append(make([]cluster.NodeID, 0, len(m.nodes)), m.nodes...)
}

// Free returns the healthy, unassigned cores within the allocation.
func (m *Manager) Free() ResourceSet {
	free := make(ResourceSet)
	for _, id := range m.nodes {
		if n := m.freeOn(id); n > 0 {
			free[id] = n
		}
	}
	return free
}

// FreeCores returns Free().Total() without building the set. The arbiter
// reads it every round and publishGauges on every mutation.
func (m *Manager) FreeCores() int {
	total := 0
	for _, id := range m.nodes {
		total += m.freeOn(id)
	}
	return total
}

// checkCounts rejects a negative core count: Assign would shrink the
// owner's assignment past what it holds, silently inflating capacity.
func checkCounts(rs ResourceSet) error {
	for id, n := range rs {
		if n < 0 {
			return fmt.Errorf("resmgr: negative core count %d on %s", n, id)
		}
	}
	return nil
}

// Assigned returns a copy of the owner's current assignment (nil if none).
func (m *Manager) Assigned(owner string) ResourceSet {
	rs, ok := m.assigned[owner]
	if !ok {
		return nil
	}
	return maps.Clone(rs)
}

// Short reports whether owner holds as many cores as carve gives it, and
// when it does not, the nodes of carve on which it holds fewer, sorted:
// the nodes a launch on carve lost while it was assigned. It reads the
// assignment in place.
func (m *Manager) Short(owner string, carve ResourceSet) (lost []cluster.NodeID, whole bool) {
	held := m.assigned[owner]
	if held.Total() == carve.Total() {
		return nil, true
	}
	for id, n := range carve {
		if held[id] < n {
			lost = append(lost, id)
		}
	}
	return cluster.SortNodeIDs(lost), false
}

// Owners returns all owners with non-empty assignments, sorted.
func (m *Manager) Owners() []string {
	var out []string
	for owner, rs := range m.assigned {
		if len(rs) > 0 {
			out = append(out, owner)
		}
	}
	slices.Sort(out)
	return out
}

// Assign marks rs as in use by owner, on top of any existing assignment.
// Every core must be free, healthy, and inside the allocation; a negative
// count is an error and a zero count is skipped.
func (m *Manager) Assign(owner string, rs ResourceSet) error {
	if err := checkCounts(rs); err != nil {
		return err
	}
	for id, n := range rs {
		if n == 0 {
			continue
		}
		if !m.allocated(id) {
			return fmt.Errorf("resmgr: node %s is outside the allocation", id)
		}
		if free := m.freeOn(id); free < n {
			return fmt.Errorf("%w: %d cores on %s requested, %d free", ErrInsufficient, n, id, free)
		}
	}
	cur, ok := m.assigned[owner]
	if !ok {
		cur = make(ResourceSet)
		m.assigned[owner] = cur
	}
	for id, n := range rs {
		if n > 0 {
			m.shift(cur, id, n)
		}
	}
	m.publishGauges()
	return nil
}

// Release returns all of owner's cores to the free pool.
func (m *Manager) Release(owner string) {
	cur := m.assigned[owner]
	for id, n := range cur {
		m.shift(cur, id, -n)
	}
	delete(m.assigned, owner)
	m.publishGauges()
}

// Faults injects deterministic, seeded transient failures into the manager
// for chaos testing: each Carve call fails with ErrInsufficient with the
// configured probability, exercising the retry path of Actuation exactly
// as a resource race would. The injector draws from its own seeded RNG so
// campaigns replay identically regardless of other randomness in the run.
type Faults struct {
	rng *rand.Rand
	// CarveFailProb is the per-call probability that Carve fails.
	CarveFailProb float64
	injected      int
}

// NewFaults creates a seeded fault injector with the given flaky-carve
// probability.
func NewFaults(seed int64, carveFailProb float64) *Faults {
	return &Faults{rng: rand.New(rand.NewSource(seed)), CarveFailProb: carveFailProb}
}

// Injected returns how many faults have fired so far.
func (f *Faults) Injected() int {
	if f == nil {
		return 0
	}
	return f.injected
}

// tripCarve draws one carve-failure decision.
func (f *Faults) tripCarve() bool {
	if f == nil || f.CarveFailProb <= 0 {
		return false
	}
	if f.rng.Float64() >= f.CarveFailProb {
		return false
	}
	f.injected++
	return true
}

// InjectFaults attaches a fault injector (nil detaches).
func (m *Manager) InjectFaults(f *Faults) { m.faults = f }

// Carve selects cores from the free pool honoring a per-node placement
// shape: total cores overall, at most perNode on any node. perNode <= 0
// means no per-node limit; cores are then spread round-robin across nodes
// (the balanced placement a resized task receives when it absorbs cores
// released across many nodes). exclude lists nodes that must not be used
// (e.g. a node Arbitration just observed failing). Nodes are filled in
// sorted order for determinism. The carved set is NOT assigned; callers
// pass it to Assign.
func (m *Manager) Carve(total, perNode int, exclude []cluster.NodeID) (ResourceSet, error) {
	if total <= 0 {
		return ResourceSet{}, nil
	}
	if m.faults.tripCarve() {
		m.metrics.injected.Inc()
		m.metrics.carveFailures.Inc()
		return nil, &carveError{injected: true}
	}
	out := make(ResourceSet)
	remaining := total
	if perNode > 0 {
		for _, id := range m.nodes {
			if remaining == 0 {
				break
			}
			if n := min(m.freeOn(id), perNode, remaining); n > 0 && !slices.Contains(exclude, id) {
				out[id] = n
				remaining -= n
			}
		}
	} else {
		// Round-robin spread: one core per node per round.
		for progressed := true; remaining > 0 && progressed; {
			progressed = false
			for _, id := range m.nodes {
				if remaining == 0 {
					break
				}
				if out[id] < m.freeOn(id) && !slices.Contains(exclude, id) {
					out[id]++
					remaining--
					progressed = true
				}
			}
		}
	}
	if remaining > 0 {
		m.metrics.carveFailures.Inc()
		return nil, &carveError{total: total, perNode: perNode, short: remaining}
	}
	m.metrics.carves.Inc()
	return out, nil
}

// UnhealthyNodes lists the allocated nodes currently out of service, in
// node order, or nil when every node is healthy — the part of the
// `get_resource_status` low-level operation Actuation steers by.
func (m *Manager) UnhealthyNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for _, id := range m.nodes {
		if n := m.cluster.Node(id); n != nil && !n.Healthy() {
			out = append(out, id)
		}
	}
	return out
}
