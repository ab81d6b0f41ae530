package stream

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// leaseSide is one stream a lease schedule drives: either every record's
// Array is leased from the stream, or every one is allocated fresh.
type leaseSide struct {
	name   string
	st     *Stream
	leased bool
	// readers holds every reader ever attached, in attach order; held[k]
	// the records reader k got and has not released yet.
	readers []*Reader
	held    [][]Step
	snaps   [][]Step
}

// leaseStats counts what a schedule exercised.
type leaseStats struct {
	puts, deliveries, drops, releases, snaps, reopens int
}

// sameRecord fails t unless a (leased side) and b (fresh side) carry the
// same index and values.
func sameRecord(t *testing.T, what string, a, b Step) {
	t.Helper()
	if a.Index != b.Index || !slices.Equal(a.Array, b.Array) {
		t.Fatalf("%s: leased record %d %v, fresh record %d %v", what, a.Index, a.Array, b.Index, b.Array)
	}
}

// checkLeaseSchedule runs ops, two bytes an operation, against a leased
// stream and a fresh one in lockstep: attach (at most three readers at a
// time, either mode), put a record of 0-5 values, get, release, detach,
// close and reopen, and snapshot with Buffered. Every delivered record,
// every record just before its release and every snapshot at the end must
// be equal on both sides. After the schedule every reader is drained and
// every record released: then each buffer the leased stream ever handed
// out is back on its free list exactly once, and releasing a record once
// more panics.
func checkLeaseSchedule(t *testing.T, ops []byte) leaseStats {
	t.Helper()
	s := sim.New(1)
	reg := NewRegistry(s, obs.NewRegistry())
	sides := [2]*leaseSide{{name: "leased", leased: true}, {name: "fresh"}}
	for _, sd := range sides {
		sd.st = reg.Open(sd.name)
	}
	var capacity []int // per reader, both sides alike
	leases := map[*arrayLease]bool{}
	var stats leaseStats
	var lastReleased Step

	attached := func(sd *leaseSide, k int) bool { return sd.st.readers[sd.readers[k].id] == sd.readers[k] }
	release := func(k, j int) {
		sameRecord(t, "before release", sides[0].held[k][j], sides[1].held[k][j])
		for _, sd := range sides {
			rec := sd.held[k][j]
			sd.held[k] = slices.Delete(sd.held[k], j, j+1)
			rec.Release()
			if sd.leased && rec.lease != nil {
				lastReleased = rec
			}
		}
		stats.releases++
	}
	get := func(p *sim.Proc, k int) {
		var recs [2]Step
		for i, sd := range sides {
			rec, err := sd.readers[k].Get(p)
			if err != nil {
				t.Fatalf("%s reader %d: Get: %v", sd.name, k, err)
			}
			recs[i] = rec
			sd.held[k] = append(sd.held[k], rec)
		}
		sameRecord(t, "delivered", recs[0], recs[1])
		stats.deliveries++
	}

	s.Spawn("schedule", func(p *sim.Proc) {
		index := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%8, int(ops[i+1])
			nr := len(sides[0].readers)
			switch op {
			case 0: // attach
				if len(sides[0].st.readers) >= 3 {
					continue
				}
				mode, c := Mode(arg&1), 1+(arg>>1)%4
				for _, sd := range sides {
					sd.readers = append(sd.readers, sd.st.Attach(c, mode))
					sd.held = append(sd.held, nil)
				}
				capacity = append(capacity, c)
			case 1, 7: // put: skipped while a Block reader is full, which would block the schedule
				full := false
				for k, r := range sides[0].readers {
					full = full || (attached(sides[0], k) && r.mode == Block && r.Len() >= capacity[k])
				}
				if full {
					continue
				}
				index++
				for _, sd := range sides {
					var rec Step
					if sd.leased {
						rec = sd.st.Lease(arg % 6)
						leases[rec.lease] = true
					} else {
						rec = Step{Array: make(Floats, arg%6)}
					}
					for j := range rec.Array {
						rec.Array[j] = float64(index*10 + j)
					}
					rec.Index = index
					if err := sd.st.Put(p, rec); err != nil {
						t.Fatalf("%s: Put %d: %v", sd.name, index, err)
					}
				}
				stats.puts++
			case 2: // get
				if nr == 0 || sides[0].readers[arg%nr].Len() == 0 {
					continue
				}
				get(p, arg%nr)
			case 3: // release one held record
				if nr == 0 || len(sides[0].held[arg%nr]) == 0 {
					continue
				}
				k := arg % nr
				release(k, (arg/nr)%len(sides[0].held[k]))
			case 4: // detach
				if nr == 0 {
					continue
				}
				for _, sd := range sides {
					sd.readers[arg%nr].Close()
				}
			case 5: // the producer closes and a new incarnation reopens
				if arg%4 != 0 {
					continue
				}
				for _, sd := range sides {
					sd.st.Close()
					reg.Open(sd.name)
				}
				stats.reopens++
			case 6: // snapshot
				if nr == 0 {
					continue
				}
				for _, sd := range sides {
					sd.snaps = append(sd.snaps, sd.readers[arg%nr].Buffered())
				}
				stats.snaps++
			}
		}
		for k := range sides[0].readers {
			for sides[0].readers[k].Len() > 0 {
				get(p, k)
			}
			for len(sides[0].held[k]) > 0 {
				release(k, 0)
			}
		}
	})
	if err := s.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return stats
	}
	stats.drops = int(sides[0].st.mDropped.Value())
	for i := range sides[0].snaps {
		a, b := sides[0].snaps[i], sides[1].snaps[i]
		if len(a) != len(b) {
			t.Fatalf("snapshot %d holds %d leased records, %d fresh", i, len(a), len(b))
		}
		for j := range a {
			sameRecord(t, "snapshot", a[j], b[j])
			if a[j].lease != nil {
				t.Fatalf("snapshot %d record %d holds a lease", i, j)
			}
		}
	}
	free := sides[0].st.free
	home := map[*arrayLease]bool{}
	for _, l := range free {
		if home[l] {
			t.Fatalf("a buffer is on the free list twice")
		}
		home[l] = true
	}
	if len(home) != len(leases) {
		t.Fatalf("%d of %d leased buffers came home after every record was released", len(home), len(leases))
	}
	for l := range leases {
		if !home[l] {
			t.Fatalf("a leased buffer (refs %d) did not come home", l.refs)
		}
	}
	if lastReleased.lease != nil {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("releasing a released record did not panic")
				}
			}()
			lastReleased.Release()
		}()
	}
	return stats
}

// genLeaseSchedule draws a schedule of up to 80 operations.
func genLeaseSchedule(rng *rand.Rand) []byte {
	ops := make([]byte, 2*rng.Intn(81))
	rng.Read(ops)
	return ops
}

// TestProperty_StreamLease_EqualsFresh: over seeded schedules of attaches,
// puts reaching 0-3 readers in both modes, gets, overflow drops, releases,
// detaches, reopens and Buffered snapshots, a stream whose records lease
// their arrays delivers and snapshots exactly what one allocating every
// record fresh does, and every buffer it leases comes home once released.
func TestProperty_StreamLease_EqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var total leaseStats
	for i := 0; i < 3000; i++ {
		st := checkLeaseSchedule(t, genLeaseSchedule(rng))
		total.puts += st.puts
		total.deliveries += st.deliveries
		total.drops += st.drops
		total.releases += st.releases
		total.snaps += st.snaps
		total.reopens += st.reopens
	}
	if total.puts < 10000 || total.deliveries < 5000 || total.drops < 1000 || total.releases < 5000 || total.snaps < 1000 || total.reopens < 1000 {
		t.Fatalf("generator coverage: %+v", total)
	}
}

// FuzzStreamLease_EqualsFresh: any schedule holds to checkLeaseSchedule.
func FuzzStreamLease_EqualsFresh(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		f.Add(genLeaseSchedule(rng))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		checkLeaseSchedule(t, ops)
	})
}

// TestStreamLease_DropReleases: a DropOldest overflow sends the record it
// discards home, so a producer outrunning its one-slot reader cycles two
// buffers however many steps it puts.
func TestStreamLease_DropReleases(t *testing.T) {
	s := sim.New(1)
	st := NewRegistry(s, obs.NewRegistry()).Open("tau")
	r := st.Attach(1, DropOldest)
	seen := map[*arrayLease]bool{}
	for i := 0; i < 10; i++ {
		rec := st.Lease(3)
		seen[rec.lease] = true
		if err := st.Put(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 || len(st.free) != 1 {
		t.Fatalf("10 overflowing puts leased %d buffers, %d free; want 2, 1", len(seen), len(st.free))
	}
	rec, err := r.Get(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.Release()
	if len(st.free) != 2 {
		t.Fatalf("%d buffers free after the last release, want 2", len(st.free))
	}
}

// TestStreamLease_ReleasedIsPoisoned: a released array reads NaN, so a
// read after release shows; a record that reaches no reader goes straight
// home, and a buffer too short for the next lease is replaced.
func TestStreamLease_ReleasedIsPoisoned(t *testing.T) {
	s := sim.New(1)
	st := NewRegistry(s, obs.NewRegistry()).Open("tau")
	rec := st.Lease(2)
	rec.Array[0], rec.Array[1] = 1, 2
	if err := st.Put(nil, rec); err != nil {
		t.Fatal(err)
	}
	if len(st.free) != 1 {
		t.Fatalf("a record no reader received is not home: %d free", len(st.free))
	}
	for _, v := range rec.Array {
		if !math.IsNaN(v) {
			t.Fatalf("released array holds %v, want NaN", rec.Array)
		}
	}
	if got := st.Lease(4); len(got.Array) != 4 || got.lease != rec.lease {
		t.Fatalf("lease of 4 after a buffer of 2: %d values, same lease %v", len(got.Array), got.lease == rec.lease)
	}
	(Step{Array: Floats{1}}).Release() // no home: nothing happens
}
