package decision

import (
	"fmt"
	"testing"

	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/trace"
)

const repollCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="NSTEPS" type="DISKSCAN">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="MAX"/>
        </group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="XGC1" workflowId="FUSION" info-source="out/xgc1.*.bp">
        <use-sensor sensor-id="NSTEPS" info="step"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1e9"/>
        <sensors-to-use><use-sensor id="NSTEPS" granularity="workflow"/></sensors-to-use>
        <action>STOP</action>
        <frequency seconds="3600"/>
      </policy>
    </policies>
    <apply-on workflowId="FUSION"><apply-policy policyId="P"><act-on-tasks>XGC1</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

type idleWorkload struct{}

func (idleWorkload) Placement(string, string) task.Placement { return nil }

// BenchmarkMonitorRepoll measures one DISKSCAN poll of unchanged files end to
// end — the Monitor client's poll and re-sent batch, the bus, the Monitor
// server's stale re-poll, and Decision's ingest of the forwarded metrics —
// by advancing the world one poll period (interval plus disk read) per op.
func BenchmarkMonitorRepoll(b *testing.B) {
	cfg, err := spec.CompileString(repollCfg)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(1)
	fs := fsim.New(s)
	for i := 0; i < 10; i++ {
		fs.Write(fmt.Sprintf("out/xgc1.%05d.bp", i), fsim.Var{Name: "step", Value: float64(i)})
	}
	bus := msg.NewBus(s)
	bus.Endpoint("arbiter")
	reg := obs.NewRegistry()
	tr := trace.New(reg)
	server := sensor.NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, tr)
	server.Start()
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, tr)
	e.Start()
	client := sensor.NewClient("client0", &task.Env{Sim: s, FS: fs}, bus, "monitor-server", cfg, cfg.Targets, idleWorkload{}, s.Spawn, reg)
	client.Start()
	period := sensor.PollInterval + sensor.DiskRead
	if err := s.Run(5 * period); err != nil {
		b.Fatal(err)
	}
	before := tr.Counter("monitor.repolled")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(s.Now() + period); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Each poll forwards the task metric and the derived workflow metric.
	if got := tr.Counter("monitor.repolled") - before; got != 2*int64(b.N) {
		b.Fatalf("%d ops forwarded %d stale metrics, want %d", b.N, got, 2*b.N)
	}
	s.Stop()
}
