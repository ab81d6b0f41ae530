package sensor

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
	"dyflow/internal/task"
)

// refShip is ship as it stood before a poll worker re-sent its last batch:
// every shipment is sanitized, preprocessed, reduced and grouped afresh,
// into the wire type that spelled each update's key out. It returns the
// batch ship sends (nil for none) and the NaN and Inf readings it drops,
// which ship counts in dyflow_sensor_dropped_samples_total.
func refShip(c *Client, tg spec.MonitorTarget, def *spec.SensorDef, readings []float64, step int, genAt sim.Time) (batch *parentBatch, nan, inf int64) {
	clean := make([]float64, 0, len(readings))
	for _, v := range readings {
		switch {
		case math.IsNaN(v):
			nan++
		case math.IsInf(v, 0):
			inf++
		default:
			clean = append(clean, v)
		}
	}
	readings = clean
	if len(readings) == 0 {
		return nil, nan, inf
	}
	if def.Preprocess != nil {
		if v, ok := stats.Reduce(*def.Preprocess, readings); ok {
			readings = []float64{v}
		}
	}
	updates := make([]parentUpdate, 0, len(def.Groups))
	for _, g := range def.Groups {
		switch g.Granularity {
		case spec.GranTask, spec.GranWorkflow:
			if g.Granularity == spec.GranWorkflow && def.HasGranularity(spec.GranTask) {
				continue
			}
			v, ok := stats.Reduce(taskReduction(def), readings)
			if !ok {
				continue
			}
			updates = append(updates, parentUpdate{
				Workflow: tg.Workflow, Task: tg.Task, Sensor: def.ID,
				Granularity: spec.GranTask.String(), Value: v, Step: step,
				GeneratedAt: genAt,
			})
		case spec.GranNodeTask, spec.GranNodeWorkflow:
			pl := c.workload.Placement(tg.Workflow, tg.Task)
			if pl == nil {
				continue
			}
			for node, vals := range groupByNode(readings, pl) {
				v, ok := stats.Reduce(g.Reduction, vals)
				if !ok {
					continue
				}
				updates = append(updates, parentUpdate{
					Workflow: tg.Workflow, Task: tg.Task, Sensor: def.ID,
					Granularity: spec.GranNodeTask.String(), Node: node,
					Value: v, Step: step, GeneratedAt: genAt,
				})
			}
		}
	}
	// Collapse duplicate (granularity, node) entries, keeping the last
	// value at the first one's position.
	dedup := updates[:0]
next:
	for _, u := range updates {
		for i := range dedup {
			if dedup[i].Granularity == u.Granularity && dedup[i].Node == u.Node {
				dedup[i] = u
				continue next
			}
		}
		dedup = append(dedup, u)
	}
	if len(dedup) == 0 {
		return nil, nan, inf
	}
	return &parentBatch{Updates: dedup}, nan, inf
}

// shipCfg polls two file sets: task A's variables through four DISKSCAN
// sensors — two of which read the same variable and so share one
// extraction, one preprocessed, one grouped by node — task B's through one,
// and task C's progress file through an ERRORSTATUS sensor whose explicit
// info-source names that one path.
const shipCfg = `
<dyflow>
  <monitor>
    <sensors>
      <sensor id="STEPS" type="DISKSCAN">
        <group-by>
          <group granularity="task" reduction-operation="MAX"/>
          <group granularity="workflow" reduction-operation="MAX"/>
        </group-by>
      </sensor>
      <sensor id="NEWEST" type="DISKSCAN">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
      <sensor id="ERR" type="DISKSCAN">
        <preprocess operation="AVG"/>
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
      <sensor id="MEM" type="DISKSCAN">
        <group-by>
          <group granularity="node-task" reduction-operation="SUM"/>
          <group granularity="task" reduction-operation="SUM"/>
        </group-by>
      </sensor>
      <sensor id="PROG" type="ERRORSTATUS">
        <group-by><group granularity="task" reduction-operation="LAST"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
      <monitor-task name="A" workflowId="W" info-source="out/a.*.bp">
        <use-sensor sensor-id="STEPS" info="step"/>
        <use-sensor sensor-id="NEWEST" info="step"/>
        <use-sensor sensor-id="ERR" info="err"/>
        <use-sensor sensor-id="MEM" info="mem"/>
      </monitor-task>
      <monitor-task name="B" workflowId="W" info-source="out/b.*.bp">
        <use-sensor sensor-id="STEPS" info="step"/>
      </monitor-task>
      <monitor-task name="C" workflowId="W" info-source="progress/c">
        <use-sensor sensor-id="PROG" info="step"/>
      </monitor-task>
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="P"><eval operation="GT" threshold="1000"/>
        <sensors-to-use><use-sensor id="STEPS" granularity="workflow"/></sensors-to-use>
        <action>STOP</action>
      </policy>
    </policies>
    <apply-on workflowId="W"><apply-policy policyId="P"><act-on-tasks>A</act-on-tasks></apply-policy></apply-on>
  </decision>
</dyflow>`

// canonicalJSON renders a batch — a BatchRecord or a reference parentBatch —
// with its updates in (granularity, node) order: groupByNode walks a map,
// so the node updates of one build come in no fixed order.
func canonicalJSON(t testing.TB, v any) string {
	t.Helper()
	b := decodeJSON[parentBatch](t, v)
	sort.Slice(b.Updates, func(i, j int) bool {
		if b.Updates[i].Granularity != b.Updates[j].Granularity {
			return b.Updates[i].Granularity < b.Updates[j].Granularity
		}
		return b.Updates[i].Node < b.Updates[j].Node
	})
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// shipStats is what one drive of pollShipment saw.
type shipStats struct {
	envelopes, resent int
}

// pollShipment drives a Monitor client's poll workers in 100 ms steps for
// steps steps, drawing each step's events from next(n) ∈ [0, n): file
// writes (NaN and ±Inf values among them), variable updates and removals
// on matching and non-matching paths, placement changes, Stop/Start and a
// Snapshot/Restore through JSON. Most steps change nothing, so most polls
// are stale.
//
// Every step it records each worker's newly owed shipment and what refShip
// builds from it — placement changes wait for a step where nothing is owed,
// so the reference sees the placement ship sees — and checks every envelope
// the client sent against the reference batches of its worker, in order.
// At the end the dropped-sample counters must equal the reference's.
func pollShipment(t testing.TB, steps int, next func(n int) int) shipStats {
	t.Helper()
	cfg, err := spec.CompileString(shipCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	fs := fsim.New(s)
	env := &task.Env{Sim: s, FS: fs}
	bus := msg.NewBus(s)
	server := bus.Endpoint("monitor-server")
	reg := obs.NewRegistry()
	wl := &fakeWorkload{placements: map[string]task.Placement{}}
	newClient := func() *Client {
		return NewClient("mc", env, bus, "monitor-server", cfg, cfg.Targets, wl, env.Sim.Spawn, reg)
	}
	c := newClient()
	c.Start()
	running := true

	var st shipStats
	want := map[string][]string{} // worker → reference batches not yet seen
	owed := map[string]sim.Time{} // worker → WakeAt of the shipment last recorded
	var refNaN, refInf int64
	cached := map[string]shipment{} // worker → its cache when its last envelope arrived
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("at %v: %s", s.Now(), fmt.Sprintf(format, args...))
	}

	observe := func() (pending bool) {
		for name, ws := range c.states {
			if ws.Pending == nil {
				continue
			}
			pending = true
			if at, ok := owed[name]; ok && at == ws.WakeAt {
				continue // recorded already (a stopped or restored worker)
			}
			owed[name] = ws.WakeAt
			tg, def := workerBinding(t, cfg, name)
			b, nan, inf := refShip(c, tg, def, ws.Pending.Readings, ws.Pending.Step, ws.Pending.GenAt)
			refNaN += nan
			refInf += inf
			if b != nil {
				want[name] = append(want[name], canonicalJSON(t, *b))
			}
		}
		return pending
	}
	receive := func() {
		for {
			e, ok := server.TryRecv()
			if !ok {
				return
			}
			b, err := msg.Payload[*Batch](&e)
			if err != nil {
				fail("%v", err)
			}
			u := b.Updates[0].Series.Key
			name := fmt.Sprintf("%s/%s.%s.%s", c.name, u.Workflow, u.Task, u.Sensor)
			if len(want[name]) == 0 {
				fail("%s sent %s, the reference owes nothing", name, canonicalJSON(t, b.Record()))
			}
			if got := canonicalJSON(t, b.Record()); got != want[name][0] {
				fail("%s sent\n%s\nreference\n%s", name, got, want[name][0])
			}
			want[name] = want[name][1:]
			st.envelopes++
			// A re-send is the batch the worker caches, its cache as it
			// was when the worker's last envelope arrived. A rebuild may
			// reuse a recycled batch, but it caches a newer extraction.
			if ws := c.states[name]; ws != nil {
				if (u.Sensor == "MEM" || u.Sensor == "PROG") && ws.last.batch != nil {
					fail("%s caches a batch; node-grouped and ERRORSTATUS batches are rebuilt", name)
				}
				if b == ws.last.batch && ws.last == cached[name] {
					st.resent++
				}
				cached[name] = ws.last
			}
			b.Release()
		}
	}
	value := func() float64 {
		switch next(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return float64(next(50))
	}
	paths := []string{"out/a.1.bp", "out/a.2.bp", "out/a.3.bp", "out/b.1.bp", "out/b.2.bp", "out/c.1.bp", "progress/c"}
	placements := []task.Placement{nil, {"n0": 2}, {"n0": 1, "n1": 1}, {"n1": 3, "n2": 1}}
	placeAt := -1

	const step = 100 * time.Millisecond
	for i := 0; ; i++ {
		if err := s.Run(s.Now() + step); err != nil {
			t.Fatal(err)
		}
		receive()
		pending := observe()
		if i >= steps {
			// Wind down: stop once nothing is owed, so every recorded
			// shipment has been sent.
			if !running {
				c.Start()
				running = true
			} else if !pending {
				c.Stop()
				break
			}
			if i > steps+100 {
				t.Fatal("the workers still owe shipments after 10 s without events")
			}
			continue
		}
		if placeAt >= 0 && !pending {
			wl.placements["W/A"] = placements[placeAt]
			placeAt = -1
		}
		if !running {
			if next(10) == 0 {
				c.Start()
				running = true
			}
			continue
		}
		// Schedule this step's file events at instants inside it.
		for n := next(3); n > 0; n-- {
			at := s.Now() + time.Duration(1+next(int(step)-1))
			p := paths[next(len(paths))]
			switch next(64) {
			case 0:
				vars := []fsim.Var{{Name: "step", Value: float64(next(500))}, {Name: "err", Value: value()}, {Name: "mem", Value: value()}}
				s.At(at, func() { fs.Write(p, vars...) })
			case 1:
				name, v := []string{"step", "err", "mem"}[next(3)], value()
				s.At(at, func() { fs.WriteVar(p, name, v) })
			case 2:
				step := fsim.Var{Name: "step", Value: float64(next(500))}
				s.At(at, func() { fs.Write(p, step) })
			case 3:
				s.At(at, func() { fs.Remove(p) })
			}
		}
		switch next(100) {
		case 0:
			placeAt = next(len(placements))
		case 1:
			c.Stop()
			running = false
		case 2, 3:
			// Mid-read whenever a shipment is owed: the restored worker
			// ships the checkpoint's copy, NaN and ±Inf readings included.
			data, err := json.Marshal(c.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var snap ClientSnapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			c.Stop()
			c = newClient()
			c.Restore(snap)
			c.Start()
		}
	}
	if err := s.Run(s.Now() + step); err != nil {
		t.Fatal(err)
	}
	receive()
	for name, w := range want {
		if len(w) != 0 {
			t.Fatalf("%s never sent %d reference batches, first %s", name, len(w), w[0])
		}
	}
	if nan, inf := c.mDropped.With("nan").Value(), c.mDropped.With("inf").Value(); nan != refNaN || inf != refInf {
		t.Fatalf("dropped samples nan %d inf %d, reference %d %d", nan, inf, refNaN, refInf)
	}
	return st
}

// workerBinding resolves a worker name ("client/workflow.task.sensor") to its
// target and sensor definition.
func workerBinding(t testing.TB, cfg *spec.Config, name string) (spec.MonitorTarget, *spec.SensorDef) {
	t.Helper()
	for _, tg := range cfg.Targets {
		for _, use := range tg.Sensors {
			if fmt.Sprintf("mc/%s.%s.%s", tg.Workflow, tg.Task, use.SensorID) == name {
				return tg, cfg.Sensors[use.SensorID]
			}
		}
	}
	t.Fatalf("no binding for worker %q", name)
	return spec.MonitorTarget{}, nil
}

// TestProperty_PollShipment_EqualsRebuild: over seeded event sequences, every
// batch a poll worker sends — re-sent for an unchanged extraction or built
// afresh — has the same record JSON as the batch the rebuild-every-poll
// reference builds from the same shipment, and the dropped-sample counters
// read what the reference drops. Most polls are stale, so most DISKSCAN
// batches are re-sends.
func TestProperty_PollShipment_EqualsRebuild(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 20
	}
	var total shipStats
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := pollShipment(t, 600, rng.Intn)
		total.envelopes += st.envelopes
		total.resent += st.resent
	}
	if total.resent == 0 || total.resent >= total.envelopes {
		t.Fatalf("%d of %d envelopes were re-sends; the drive must exercise both paths", total.resent, total.envelopes)
	}
	t.Logf("%d envelopes, %d re-sent", total.envelopes, total.resent)
}

// FuzzPollShipment is the property over fuzzer-chosen event sequences: each
// input byte is one draw, and an exhausted input draws n-1, which schedules
// nothing.
func FuzzPollShipment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 5, 1, 7, 0, 3, 3, 40, 1, 0, 99, 2, 1, 0, 1, 1, 4, 2, 8, 0})
	f.Add([]byte("\x01\x00\x00\x03\x02\x05\x00\x01\x09\x63\x01\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return n - 1
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		pollShipment(t, 200, next)
	})
}

// TestStalePollAllocatesNothing: the client side of a DISKSCAN poll over
// unchanged files — the poll, the re-sent batch and its delivery — makes no
// allocation.
func TestStalePollAllocatesNothing(t *testing.T) {
	r := newScanRig(t)
	r.populate(10)
	server := r.bus.Endpoint("monitor-server")
	var buf []msg.Envelope
	r.s.Spawn("server", func(p *sim.Proc) {
		for {
			batch, err := server.RecvBatch(p, buf[:0])
			if err != nil {
				return
			}
			buf = batch
		}
	})
	ws := &WorkerState{}
	poll := func() {
		pend, ok := r.c.pollOnce(ws, r.tg, r.use, r.def, pollPath(r.tg, r.def))
		if !ok {
			t.Fatal("the poll read nothing")
		}
		r.c.ship(ws, r.tg, r.def, pend)
		if err := r.s.Run(r.s.Now()); err != nil {
			t.Fatal(err)
		}
	}
	poll()
	poll()
	if n := testing.AllocsPerRun(100, poll); n != 0 {
		t.Errorf("a stale DISKSCAN poll allocates %v times on the client side, want 0", n)
	}
}

// TestChangedPollAllocatesNothing: the client side of a DISKSCAN poll
// whose extraction changed — a new step, a new value — builds its batch
// off the client's free list, which the batch it replaces in the worker's
// re-send cache went back to once the server released it: the build, the
// send and its delivery make no allocation in steady state.
func TestChangedPollAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := newScanRig(t)
	server := r.bus.Endpoint("monitor-server")
	var buf []msg.Envelope
	var got Update
	r.s.Spawn("server", func(p *sim.Proc) {
		for {
			batch, err := server.RecvBatch(p, buf[:0])
			if err != nil {
				return
			}
			buf = batch
			for i := range batch {
				b, err := msg.Payload[*Batch](&batch[i])
				if err != nil {
					t.Error(err)
					return
				}
				got = b.Updates[0]
				b.Release()
			}
		}
	})
	ws := &WorkerState{}
	sc := &diskScan{}
	readings := []float64{1, 2, 3}
	poll := func() {
		readings[2]++
		pend := PendingShip{Readings: readings, Step: int(readings[2]), GenAt: r.s.Now(), scan: sc, gen: uint64(readings[2])}
		r.c.ship(ws, r.tg, r.def, pend)
		if err := r.s.Run(r.s.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	poll()
	poll()
	if n := testing.AllocsPerRun(100, poll); n != 0 {
		t.Errorf("a changed DISKSCAN poll allocates %v times on the client side, want 0", n)
	}
	if got.Series == nil || got.Series.Key.Granularity != spec.GranTask || got.Value != readings[2] {
		t.Fatalf("the server read %+v, want the task series at %v", got, readings[2])
	}
}
