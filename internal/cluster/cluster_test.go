package cluster

import (
	"testing"
	"time"

	"dyflow/internal/sim"
)

func TestPresets(t *testing.T) {
	s := sim.New(1)
	summit := Summit(s, 10)
	if len(summit.nodes) != 10 {
		t.Fatalf("Summit size = %d", len(summit.nodes))
	}
	n := summit.Node("node000")
	if n.Cores != 42 || n.MemGB != 512 {
		t.Fatalf("Summit node = %+v", n)
	}
	dt2 := Deepthought2(s, 5)
	n2 := dt2.Node("node004")
	if n2.Cores != 20 || n2.MemGB != 128 {
		t.Fatalf("Deepthought2 node = %+v", n2)
	}
	if healthyCores(dt2) != 100 {
		t.Fatalf("healthy cores = %d, want 100", healthyCores(dt2))
	}
}

func TestDeterministicNodeOrder(t *testing.T) {
	s := sim.New(1)
	c := Summit(s, 4)
	nodes := c.Nodes()
	for i, n := range nodes {
		want := NodeID([]string{"node000", "node001", "node002", "node003"}[i])
		if n.ID != want {
			t.Fatalf("nodes[%d] = %s, want %s", i, n.ID, want)
		}
	}
}

func TestFailRestoreNotifies(t *testing.T) {
	s := sim.New(1)
	c := Deepthought2(s, 3)
	var events []string
	c.OnHealthChange(func(n *Node, healthy bool) {
		state := "up"
		if !healthy {
			state = "down"
		}
		events = append(events, string(n.ID)+":"+state)
	})
	c.FailNode("node001")
	c.FailNode("node001") // idempotent
	if healthyCores(c) != 40 {
		t.Fatalf("healthy cores after failure = %d, want 40", healthyCores(c))
	}
	if len(c.HealthyNodes()) != 2 {
		t.Fatalf("healthy = %d, want 2", len(c.HealthyNodes()))
	}
	c.RestoreNode("node001")
	if len(events) != 2 || events[0] != "node001:down" || events[1] != "node001:up" {
		t.Fatalf("events = %v", events)
	}
}

func TestFailNodeAt(t *testing.T) {
	s := sim.New(1)
	c := Deepthought2(s, 2)
	c.FailNodeAt(10*time.Minute, "node000")
	s.Run(5 * time.Minute)
	if !c.Node("node000").Healthy() {
		t.Fatal("node failed before its scheduled time")
	}
	s.Run(11 * time.Minute)
	if c.Node("node000").Healthy() {
		t.Fatal("node did not fail at its scheduled time")
	}
}

func TestFailUnknownNode(t *testing.T) {
	s := sim.New(1)
	c := Deepthought2(s, 1)
	c.FailNode("nope") // must not panic
	c.RestoreNode("nope")
	if len(c.nodes) != 1 {
		t.Fatal("size changed")
	}
}

// healthyCores sums the cores of the in-service nodes.
func healthyCores(c *Cluster) int {
	total := 0
	for _, n := range c.HealthyNodes() {
		total += n.Cores
	}
	return total
}
