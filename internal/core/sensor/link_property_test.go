package sensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/task"
	"dyflow/internal/trace"
)

// freshPayload is the server's sender as it stood before the Monitor links
// recycled their payloads: every forward list goes out as a new
// []MetricMsg, here in a list with no home, which no release recycles.
func freshPayload(out []Metric) *MetricList {
	msgs := make([]MetricMsg, len(out))
	for i := range out {
		msgs[i] = out[i].ToMsg()
	}
	return &MetricList{Msgs: msgs}
}

// onDelivery calls fn with the payload of each envelope bus delivers, as it
// is queued: a snapshot taken at the delivery lists the endpoint's queue,
// and the envelope just delivered is its last.
func onDelivery(bus *msg.Bus, fn func(to string, p any)) {
	onDepth := bus.OnDepth
	var last map[string]any
	bus.Encode = func(to string, p any) ([]byte, error) {
		last[to] = p
		return nil, nil
	}
	bus.OnDepth = func(to string, depth int) {
		if onDepth != nil {
			onDepth(to, depth)
		}
		last = map[string]any{}
		bus.Snapshot()
		fn(to, last[to])
	}
}

// decisionReads spawns a stand-in for Decision's receive loop on endpoint
// ep: it appends the metrics of every list to *got and releases the list.
func decisionReads(t testing.TB, s *sim.Sim, ep *msg.Endpoint, got *[]Metric) {
	var buf []msg.Envelope
	s.Spawn("decision", func(p *sim.Proc) {
		for {
			batch, err := ep.RecvBatch(p, buf[:0])
			if err != nil {
				return
			}
			buf = batch
			for i := range batch {
				env := &batch[i]
				l, err := msg.Payload[*MetricList](env)
				if err != nil {
					t.Error(err)
					return
				}
				for _, w := range l.Msgs {
					*got = append(*got, FromMsg(w, env.SentAt))
				}
				l.Release()
			}
		}
	})
}

// linkWorker is one (target, sensor) binding the drive ships for, its
// worker state and the extraction it last shipped.
type linkWorker struct {
	tg   spec.MonitorTarget
	def  *spec.SensorDef
	st   *WorkerState
	scan *diskScan // DISKSCAN sensors only
	gen  uint64
	pend PendingShip
}

// monitorLink drives both Monitor links twice over, side by side on one
// bus, for steps steps drawn from next(n) ∈ [0, n): once through a
// Client's ship and a Server, which recycle their payloads and whose
// Decision releases every list, and once through the allocate-fresh
// senders — refShip for batches and freshPayload, fed by a second
// server's forwards, for lists — whose payloads no release recycles. Each
// step ships a same-instant burst of shipments: unchanged re-polls of a
// worker's last extraction, changed readings (NaN among them) and
// ERRORSTATUS polls that never re-send. Both Decisions must read the same
// metrics, and at the end every payload the recycling side sent is idle:
// on its sender's free list once, or, a batch, in its worker's re-send
// cache. It returns how many metrics Decision read.
func monitorLink(t testing.TB, steps int, next func(n int) int) int {
	t.Helper()
	cfg, err := spec.CompileString(shipCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	bus := msg.NewBus(s)
	batches, lists := map[*Batch]bool{}, map[*MetricList]bool{}
	onDelivery(bus, func(to string, p any) {
		switch to {
		case "monitor-server":
			batches[p.(*Batch)] = true
		case "decision":
			lists[p.(*MetricList)] = true
		}
	})

	reg := obs.NewRegistry()
	tr := trace.New(reg)
	// One node hosts every rank a drive reads, so a node-task build holds
	// one update: groupByNode's map order cannot reorder a batch.
	wl := &fakeWorkload{placements: map[string]task.Placement{"W/A": {"n0": 3}}}
	c := NewClient("mc", &task.Env{Sim: s}, bus, "monitor-server", cfg, cfg.Targets, wl, s.Spawn, reg)
	sv := NewServer(s, s.Spawn, bus, "monitor-server", "decision", cfg, tr)
	sv.Start()
	var got, want []Metric
	decisionReads(t, s, bus.Endpoint("decision"), &got)

	refClient := bus.Endpoint("mc-ref")
	refFwd := bus.Endpoint("ref-fwd")
	// The reference server's own lists go to a Decision whose reads are
	// thrown away: the reference side's Decision reads freshPayload's.
	var sunk []Metric
	decisionReads(t, s, bus.Endpoint("ref-sink"), &sunk)
	rv := NewServer(s, s.Spawn, bus, "ref-server", "ref-sink", cfg, trace.New(obs.NewRegistry()))
	rv.OnForward(func(out []Metric) { refFwd.Send("ref-decision", freshPayload(out)) })
	rv.Start()
	decisionReads(t, s, bus.Endpoint("ref-decision"), &want)

	var workers []*linkWorker
	for _, tg := range cfg.Targets {
		for _, use := range tg.Sensors {
			w := &linkWorker{tg: tg, def: cfg.Sensors[use.SensorID], st: &WorkerState{}}
			if w.def.Source == spec.SourceDiskScan {
				w.scan = &diskScan{}
			}
			workers = append(workers, w)
		}
	}
	for i := 0; i < steps; i++ {
		for n := next(4); n > 0; n-- {
			w := workers[next(len(workers))]
			if next(3) != 0 || w.pend.Readings == nil {
				readings := make([]float64, 1+next(3))
				for j := range readings {
					readings[j] = float64(next(40))
					if next(16) == 0 {
						readings[j] = math.NaN()
					}
				}
				w.gen++
				w.pend = PendingShip{Readings: readings, Step: next(500), GenAt: max(0, s.Now()-sim.Time(next(3))*time.Second)}
			} // else an unchanged re-poll of the worker's last extraction
			pend := w.pend
			if w.scan != nil {
				pend.scan, pend.gen = w.scan, w.gen
			}
			c.ship(w.st, w.tg, w.def, pend)
			if b, _, _ := refShip(c, w.tg, w.def, pend.Readings, pend.Step, pend.GenAt); b != nil {
				live, err := decodeJSON[BatchRecord](t, *b).Live()
				if err != nil {
					t.Fatal(err)
				}
				refClient.Send("ref-server", &live)
			}
		}
		if err := s.Run(s.Now() + time.Duration(next(6))*50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(s.Now() + time.Second); err != nil {
		t.Fatal(err)
	}

	// Compared as JSON, by key: the two sides' servers number their
	// series apart.
	if g, w := jsonOf(t, got), jsonOf(t, want); g != w {
		t.Fatalf("Decision read\n%s\nfrom the recycling senders, and\n%s\nfrom the allocate-fresh ones", g, w)
	}
	cachedBatches := map[*Batch]bool{}
	for _, w := range workers {
		if b := w.st.last.batch; b != nil {
			cachedBatches[b] = true
		}
	}
	idle(t, "batch", batches, c.batches, cachedBatches, func(b *Batch) *msg.Lease[Batch] { return &b.lease })
	idle(t, "list", lists, sv.lists, nil, func(l *MetricList) *msg.Lease[MetricList] { return &l.lease })
	return len(got)
}

// idle checks that every payload in sent is idle: no envelope carries it,
// and it is either on the free list, once, or in cached, which is what
// its lease says.
func idle[P any](t testing.TB, what string, sent map[*P]bool, free []*P, cached map[*P]bool, lease func(*P) *msg.Lease[P]) {
	t.Helper()
	onList := map[*P]int{}
	for _, p := range free {
		onList[p]++
	}
	for p := range sent {
		l := leaseOf(lease(p))
		if l.refs != 0 || l.home == nil || l.cached != cached[p] || cached[p] == (onList[p] == 1) || onList[p] > 1 {
			t.Fatalf("a %s sent is not idle after its release: refs %d, cached %v (lease %v), %d times on the free list", what, l.refs, cached[p], l.cached, onList[p])
		}
	}
	if len(onList) != len(free) {
		t.Fatalf("the %s free list holds %d payloads, %d of them distinct", what, len(free), len(onList))
	}
}

// leaseState is a msg.Lease's state: the holders its payload has, its
// home and whether a re-send cache holds it.
type leaseState[P any] struct {
	refs   int64
	home   *[]*P
	cached bool
}

// leaseOf reads l's state. msg keeps it unexported and a test-only export
// there is visible to msg's own tests alone, so it is read by reflection.
func leaseOf[P any](l *msg.Lease[P]) leaseState[P] {
	v := reflect.ValueOf(l).Elem()
	return leaseState[P]{
		refs:   v.FieldByName("refs").Int(),
		home:   (*[]*P)(v.FieldByName("home").UnsafePointer()),
		cached: v.FieldByName("cached").Bool(),
	}
}

// TestProperty_MonitorLink_EqualsFresh: over seeded drives, Decision reads
// the same metrics off the recycling Monitor links as off the
// allocate-fresh senders they replaced, and every payload is idle at the
// end. The drives must forward metrics.
func TestProperty_MonitorLink_EqualsFresh(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 10
	}
	metrics := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		metrics += monitorLink(t, 300, rng.Intn)
	}
	if metrics == 0 {
		t.Fatal("the drives forwarded no metrics")
	}
	t.Logf("%d metrics read", metrics)
}

// FuzzMonitorLink_EqualsFresh is the property over fuzzer-chosen drives:
// each input byte is one draw, and an exhausted input draws 0.
func FuzzMonitorLink_EqualsFresh(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 7, 0, 2, 2, 9, 1, 3, 0, 0, 5, 3, 4, 1, 0, 2, 30, 1})
	f.Add([]byte("\x02\x00\x01\x03\x05\x00\x03\x01\x02\x04\x03\x00\x00\x01\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		monitorLink(t, 100, next)
	})
}
