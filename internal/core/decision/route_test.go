package decision

import (
	"runtime"
	"testing"
	"time"

	"dyflow/internal/core/sensor"
	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/trace"
)

// TestIngestRoutesByDescriptor: a series' metrics reach the same binding
// state whichever descriptor names it — the server's, one decoded from a
// checkpoint (ID 0), or a renumbered server's taking another series' slot —
// and a slot rebuilt for another series routes that series' metrics, not
// the first's.
func TestIngestRoutesByDescriptor(t *testing.T) {
	_, e := newEngine(t)
	pace := sensor.Key{Workflow: "GS", Task: "Iso", Sensor: "PACE", Granularity: spec.GranTask}
	steps := sensor.Key{Workflow: "GS", Sensor: "NSTEPS", Granularity: spec.GranWorkflow}
	ingest := func(s *sensor.Series, v float64) {
		e.Ingest(sensor.Metric{Key: s.Key, Series: s, Value: v, GeneratedAt: time.Second, ObservedAt: time.Second})
	}
	ingest(&sensor.Series{ID: 1, Key: pace}, 30)
	ingest(&sensor.Series{Key: pace}, 40)          // decoded from a checkpoint
	ingest(&sensor.Series{ID: 1, Key: steps}, 374) // a renumbered server's slot 1
	ingest(&sensor.Series{ID: 2, Key: pace}, 50)   // and its PACE series

	for _, b := range e.bindings {
		var want []sensor.Key
		var last float64
		switch b.def.ID {
		case "INC_ON_PACE":
			want, last = []sensor.Key{pace}, 50
		case "SWITCH_ON_COND":
			want, last = []sensor.Key{steps}, 374
		default:
			continue
		}
		if len(b.order) != 1 || b.order[0] != want[0] || len(b.series) != 1 {
			t.Fatalf("%s holds series %v, want %v", b.def.ID, b.order, want)
		}
		if st := b.series[0]; st.last != last {
			t.Fatalf("%s: latest value %v, want %v", b.def.ID, st.last, last)
		}
	}
	inc := e.bindings[0]
	if vals := inc.series[0].window.Values(); len(vals) != 3 || vals[0] != 30 || vals[1] != 40 || vals[2] != 50 {
		t.Fatalf("INC_ON_PACE's history = %v, want [30 40 50]", vals)
	}
}

// TestKnownSeriesIngestAllocatesNothing: ingesting a metric of a series
// Decision has routed before — the Monitor server's descriptor, already
// stored on its binding — indexes the route and compares one pointer: it
// allocates nothing.
func TestKnownSeriesIngestAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, e := newEngine(t)
	k := sensor.Key{Workflow: "GS", Task: "Iso", Sensor: "PACE", Granularity: spec.GranTask}
	m := sensor.Metric{Key: k, Series: &sensor.Series{ID: 3, Key: k}, Value: 30}
	ingest := func() {
		m.GeneratedAt += time.Second
		m.ObservedAt += time.Second
		m.Value++
		e.Ingest(m)
	}
	ingest()
	ingest()
	if n := testing.AllocsPerRun(100, ingest); n != 0 {
		t.Errorf("a known series' ingest allocates %v times, want 0", n)
	}
	if st := e.bindings[0].series[0]; st.last != m.Value || st.lastAt != m.ObservedAt {
		t.Fatalf("the binding holds %v at %v, want %v at %v", st.last, st.lastAt, m.Value, m.ObservedAt)
	}
}

// TestEvalRoundAllocatesNothing: once warm, an evaluation tick whose one
// due binding fires, and the Arbiter's receive of its round — copy the
// suggestions out, release the round — allocate nothing: the round comes
// off Decision's free list, names the binding's rule, copies nothing of
// its act-on tasks or parameters, rides the bus by pointer and goes back
// to the list. Beside that the tick opens the suggestion's span, which
// costs what opening one on a bare recorder holding as many spans costs
// (a chunk of the span log now and then; its growth is trace's test).
func TestEvalRoundAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg, err := spec.CompileString(cfgXML)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	in := bus.Endpoint("arbiter")
	tr := trace.New(obs.NewRegistry())
	e := New(s, s.Spawn, bus, "decision", "arbiter", cfg, tr)
	var got []Suggestion
	s.Spawn("arbiter", func(p *sim.Proc) {
		for {
			env, err := in.Recv(p)
			if err != nil {
				return
			}
			r, err := msg.Payload[*Round](&env)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got[:0], r.Sugs...)
			r.Release()
		}
	})
	// One arrival, at a nonzero instant: the series stays live.
	e.Ingest(metric("GS", "Iso", "PACE", spec.GranTask, 100, time.Second))
	round := func() {
		for _, b := range e.bindings {
			b.everEval = false // due again, on the same live series
		}
		e.tick()
		if err := s.Run(s.Now()); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	allocs := testing.AllocsPerRun(100, round)
	const runs = 100
	var before, after runtime.MemStats
	ref := trace.New(obs.NewRegistry())
	held := len(tr.Spans())
	for seq := 1; seq <= held; seq++ {
		ref.Suggested(seq, "GS", "P", "A", "PACE", 1, 2, 3)
	}
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		ref.Suggested(held+i, "GS", "P", "A", "PACE", 1, 2, 3)
	}
	runtime.ReadMemStats(&after)
	spanBytes := after.TotalAlloc - before.TotalAlloc
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if len(got) != 1 || got[0].Rule != e.bindings[0].rule || got[0].Seq != e.seq {
		t.Fatalf("the round sent %+v, want one suggestion #%d of the binding's rule", got, e.seq)
	}
	if len(e.rounds) != 1 {
		t.Fatalf("Decision's free list holds %d rounds after the ticks, want the one they reuse", len(e.rounds))
	}
	if bytes := after.TotalAlloc - before.TotalAlloc - spanBytes; allocs != 0 || bytes != 0 {
		t.Errorf("a warm firing tick and its receive allocate %v times, %d bytes beside its spans' %d; want nothing",
			allocs, bytes/runs, spanBytes/runs)
	}
}
