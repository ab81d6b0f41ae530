package wms

import (
	"testing"
	"time"

	"dyflow/internal/sim"
)

// TestSavannaMetrics: task starts/stops and the running-tasks gauge track
// the lifecycle, including a restart.
func TestSavannaMetrics(t *testing.T) {
	b := newBench(t, 2)
	reg := b.reg
	b.sv.Compose(simpleWF(1000))
	val := func(name string) float64 {
		v, _ := reg.Value(name)
		return v
	}

	b.s.Spawn("driver", func(p *sim.Proc) {
		if err := b.sv.Launch(p, "WF"); err != nil {
			t.Errorf("Launch: %v", err)
			return
		}
		if val("dyflow_wms_running_tasks") != 1 {
			t.Errorf("running = %v after launch, want 1", val("dyflow_wms_running_tasks"))
		}
		p.Sleep(5 * time.Second)
		b.sv.StopTask(p, "WF", "Sim", true)
		p.Sleep(time.Millisecond) // let the end-watcher observe the exit
		if val("dyflow_wms_running_tasks") != 0 {
			t.Errorf("running = %v after stop, want 0", val("dyflow_wms_running_tasks"))
		}
		rs, err := b.rm.Carve(20, 10, nil)
		if err != nil {
			t.Errorf("carve: %v", err)
			return
		}
		if err := b.sv.StartTask(p, "WF", "Sim", rs, ""); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		p.Sleep(time.Second)
		b.sv.StopTask(p, "WF", "Sim", false)
	})
	if err := b.s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if val("dyflow_wms_task_starts_total") != 2 || val("dyflow_wms_task_stops_total") != 2 {
		t.Fatalf("starts=%v stops=%v, want 2/2",
			val("dyflow_wms_task_starts_total"), val("dyflow_wms_task_stops_total"))
	}
	if val("dyflow_wms_running_tasks") != 0 {
		t.Fatalf("running = %v at end, want 0", val("dyflow_wms_running_tasks"))
	}
}
