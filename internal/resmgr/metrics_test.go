package resmgr

import (
	"testing"

	"dyflow/internal/cluster"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// TestMetricsPublish: the manager republishes utilization gauges at every
// mutation point and counts carve outcomes. Deepthought2 nodes have 20
// cores each.
func TestMetricsPublish(t *testing.T) {
	c := cluster.Deepthought2(sim.New(1), 3)
	reg := obs.NewRegistry()
	m := New(c, reg)
	val := func(name string) float64 {
		t.Helper()
		v, ok := reg.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return v
	}

	ids, err := m.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if val("dyflow_resmgr_allocated_nodes") != 2 || val("dyflow_resmgr_free_cores") != 40 {
		t.Fatalf("after allocate: allocated=%v free=%v, want 2/40",
			val("dyflow_resmgr_allocated_nodes"), val("dyflow_resmgr_free_cores"))
	}

	rs, err := m.Carve(5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Assign("owner", rs); err != nil {
		t.Fatal(err)
	}
	if val("dyflow_resmgr_carves_total") != 1 {
		t.Fatalf("carves = %v, want 1", val("dyflow_resmgr_carves_total"))
	}
	if val("dyflow_resmgr_assigned_cores") != 5 || val("dyflow_resmgr_free_cores") != 35 {
		t.Fatalf("after assign: assigned=%v free=%v, want 5/35",
			val("dyflow_resmgr_assigned_cores"), val("dyflow_resmgr_free_cores"))
	}
	// Per-node series sum to the assigned total.
	if val("dyflow_resmgr_node_assigned_cores") != 5 {
		t.Fatalf("per-node assigned sum = %v, want 5", val("dyflow_resmgr_node_assigned_cores"))
	}

	if _, err := m.Carve(1000, 0, nil); err == nil {
		t.Fatal("oversized carve succeeded")
	}
	if val("dyflow_resmgr_carve_failures_total") != 1 {
		t.Fatalf("carve failures = %v, want 1", val("dyflow_resmgr_carve_failures_total"))
	}

	// Injected chaos fault: counted both as injected and as a failure.
	m.InjectFaults(NewFaults(1, 1.0))
	if _, err := m.Carve(1, 0, nil); err == nil {
		t.Fatal("injected fault did not fire")
	}
	m.InjectFaults(nil)
	if val("dyflow_resmgr_injected_faults_total") != 1 || val("dyflow_resmgr_carve_failures_total") != 2 {
		t.Fatalf("injected=%v failures=%v, want 1/2",
			val("dyflow_resmgr_injected_faults_total"), val("dyflow_resmgr_carve_failures_total"))
	}

	// Node death trims the owner's cores there and flips the health gauge.
	lostCores := rs[ids[0]]
	c.FailNode(ids[0])
	if val("dyflow_resmgr_unhealthy_nodes") != 1 {
		t.Fatalf("unhealthy = %v, want 1", val("dyflow_resmgr_unhealthy_nodes"))
	}
	if got := val("dyflow_resmgr_assigned_cores"); got != float64(5-lostCores) {
		t.Fatalf("assigned after node death = %v, want %d", got, 5-lostCores)
	}

	// Release and node return: free capacity recovers.
	m.Release("owner")
	c.RestoreNode(ids[0])
	if val("dyflow_resmgr_assigned_cores") != 0 || val("dyflow_resmgr_unhealthy_nodes") != 0 ||
		val("dyflow_resmgr_free_cores") != 40 {
		t.Fatalf("after recovery: assigned=%v unhealthy=%v free=%v, want 0/0/40",
			val("dyflow_resmgr_assigned_cores"), val("dyflow_resmgr_unhealthy_nodes"),
			val("dyflow_resmgr_free_cores"))
	}

	if err := m.ReleaseNodes([]cluster.NodeID{ids[1]}); err != nil {
		t.Fatal(err)
	}
	if val("dyflow_resmgr_allocated_nodes") != 1 {
		t.Fatalf("allocated after release = %v, want 1", val("dyflow_resmgr_allocated_nodes"))
	}
}
