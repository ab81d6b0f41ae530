// Package cluster models the parallel machines DYFLOW's evaluation ran on.
// A Cluster is a set of nodes with per-node core and memory inventories and
// a health flag; experiments inject node failures through it. Presets for
// the paper's two machines — ORNL Summit and UMD Deepthought2 — reproduce
// the per-node shapes the paper reports (§4.1).
package cluster

import (
	"fmt"
	"sort"

	"dyflow/internal/sim"
)

// NodeID identifies a node within a cluster (e.g. "node007").
type NodeID string

// Node describes one compute node.
type Node struct {
	ID NodeID
	// Cores is the number of physical cores schedulable for task processes.
	Cores int
	// MemGB is DRAM capacity in GiB.
	MemGB int

	healthy bool
}

// Healthy reports whether the node is in service.
func (n *Node) Healthy() bool { return n.healthy }

// String returns a short human-readable description.
func (n *Node) String() string {
	state := "up"
	if !n.healthy {
		state = "DOWN"
	}
	return fmt.Sprintf("%s(%d cores, %d GB, %s)", n.ID, n.Cores, n.MemGB, state)
}

// HealthListener observes node health transitions. Register listeners with
// Cluster.OnHealthChange; the resource manager uses this to mark assigned
// resources unhealthy, which in turn surfaces as task failures.
type HealthListener func(node *Node, healthy bool)

// Cluster is a collection of nodes sharing one machine description.
type Cluster struct {
	sim   *sim.Sim
	nodes map[NodeID]*Node
	order []NodeID // deterministic iteration order
	subs  []HealthListener
}

// Config describes a homogeneous machine for New.
type Config struct {
	Nodes        int
	CoresPerNode int
	MemGBPerNode int
}

// New builds a homogeneous cluster of cfg.Nodes identical nodes named
// node000, node001, ...
func New(s *sim.Sim, cfg Config) *Cluster {
	c := &Cluster{
		sim:   s,
		nodes: make(map[NodeID]*Node, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := NodeID(fmt.Sprintf("node%03d", i))
		c.nodes[id] = &Node{
			ID:      id,
			Cores:   cfg.CoresPerNode,
			MemGB:   cfg.MemGBPerNode,
			healthy: true,
		}
		c.order = append(c.order, id)
	}
	return c
}

// Summit builds an n-node slice of the ORNL Summit machine: 2× IBM Power9
// per node (42 schedulable cores, 4-way SMT), 512 GB DDR4, 6 Volta GPUs.
// The real machine has 4,608 nodes; experiments allocate a small slice.
// The model keeps the cores and the memory: the paper's experiments
// schedule CPUs.
func Summit(s *sim.Sim, n int) *Cluster {
	return New(s, Config{Nodes: n, CoresPerNode: 42, MemGBPerNode: 512})
}

// Deepthought2 builds an n-node slice of UMD Deepthought2: dual Intel Ivy
// Bridge E5-2680v2 per node (20 cores, 2 hardware threads/core), 128 GB
// DDR3. The real machine has 448 nodes.
func Deepthought2(s *sim.Sim, n int) *Cluster {
	return New(s, Config{Nodes: n, CoresPerNode: 20, MemGBPerNode: 128})
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Nodes returns all nodes in deterministic (creation) order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// HealthyNodes returns the in-service nodes in deterministic order.
func (c *Cluster) HealthyNodes() []*Node {
	var out []*Node
	for _, id := range c.order {
		if n := c.nodes[id]; n.healthy {
			out = append(out, n)
		}
	}
	return out
}

// OnHealthChange registers a listener for node health transitions.
func (c *Cluster) OnHealthChange(fn HealthListener) { c.subs = append(c.subs, fn) }

// FailNode takes a node out of service, notifying listeners. Failing an
// unknown or already-failed node is a no-op.
func (c *Cluster) FailNode(id NodeID) {
	n := c.nodes[id]
	if n == nil || !n.healthy {
		return
	}
	n.healthy = false
	for _, fn := range c.subs {
		fn(n, false)
	}
}

// RestoreNode returns a failed node to service, notifying listeners.
func (c *Cluster) RestoreNode(id NodeID) {
	n := c.nodes[id]
	if n == nil || n.healthy {
		return
	}
	n.healthy = true
	for _, fn := range c.subs {
		fn(n, true)
	}
}

// FailNodeAt schedules a node failure at absolute virtual time at. It is
// the failure-injection entry point used by the resilience experiments
// (paper §4.5: "10 mins into the experiment one of the allocated nodes was
// taken out of service").
func (c *Cluster) FailNodeAt(at sim.Time, id NodeID) {
	c.sim.At(at, func() { c.FailNode(id) })
}

// SortNodeIDs sorts a slice of node IDs lexically in place and returns it;
// helper for deterministic reporting.
func SortNodeIDs(ids []NodeID) []NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
