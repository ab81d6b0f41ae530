package sensor

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// scanRig is a DISKSCAN client that is never started: the tests and
// benchmarks below drive pollOnce directly, as a poll worker would.
type scanRig struct {
	s   *sim.Sim
	fs  *fsim.FS
	bus *msg.Bus
	c   *Client
	tg  spec.MonitorTarget
	use spec.SensorUse
	def *spec.SensorDef
	ws  WorkerState // the polling worker's state
}

func newScanRig(tb testing.TB) *scanRig {
	tb.Helper()
	cfg, err := spec.CompileString(nstepsCfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := sim.New(1)
	fs := fsim.New(s)
	env := &task.Env{Sim: s, FS: fs}
	bus := msg.NewBus(s)
	c := NewClient("client0", env, bus, "monitor-server", cfg, cfg.Targets, &fakeWorkload{}, s.Spawn, obs.NewRegistry())
	tg := cfg.Targets[0] // XGC1 over out/xgc1.*.bp
	return &scanRig{s: s, fs: fs, bus: bus, c: c, tg: tg, use: tg.Sensors[0], def: cfg.Sensors[tg.Sensors[0].SensorID]}
}

// populate writes n files the scan matches among 2n it does not.
func (r *scanRig) populate(n int) {
	for i := 0; i < n; i++ {
		step := fsim.Var{Name: "step", Value: float64(i)}
		r.fs.Write(fmt.Sprintf("out/xgc1.%05d.bp", i), step)
		r.fs.Write(fmt.Sprintf("out/xgca.%05d.bp", i), step)
		r.fs.Write(fmt.Sprintf("ckpt/xgc1.%05d", i), step)
	}
}

func (r *scanRig) poll() ([]float64, int, sim.Time, bool) {
	return r.pollUse(r.use)
}

func (r *scanRig) pollUse(use spec.SensorUse) ([]float64, int, sim.Time, bool) {
	pend, ok := r.c.pollOnce(&r.ws, r.tg, use, r.def, pollPath(r.tg, r.def))
	return pend.Readings, pend.Step, pend.GenAt, ok
}

// fullScanPoll is the disk-scan poll as it stood before the cache: glob
// everything, copy it, read one variable per file.
func fullScanPoll(fs *fsim.FS, pattern, info string) (readings []float64, step int, genAt sim.Time, ok bool) {
	for _, f := range fs.Glob(pattern) {
		if v, found := f.Var(info); found {
			readings = append(readings, v)
			if f.MTime > genAt {
				genAt = f.MTime
			}
			if s, _ := f.Var("step"); int(s) > step {
				step = int(s)
			}
		}
	}
	return readings, step, genAt, len(readings) > 0
}

// diskScanDrive runs ops seeded filesystem operations, one per virtual
// second, drawing each from next(n) ∈ [0, n), and after each checks that a
// poll of both variables read over the same pattern returns exactly what a
// full scan would. The operations are writes, variable updates and
// removals on a fixed set of matching and non-matching paths — which sort
// before the files appended later, so a write there creates or rewrites
// mid-list — and appends at the tail: files of rising "%05d" step carrying
// one variable, the other, or neither, and non-matching files beside
// them. Most steps change nothing and the poll answers from its extraction.
func diskScanDrive(t testing.TB, ops int, next func(n int) int) {
	r := newScanRig(t)
	errUse := spec.SensorUse{SensorID: r.use.SensorID, Info: "errnorm"}
	paths := []string{"out/xgc1.00001.bp", "out/xgc1.00002.bp", "out/xgc1.00003.bp", "out/xgca.00001.bp", "out/xgc1.bp", "progress/fusion"}
	tail := 10 // the next appended step; every fixed path sorts before it
	for op := 0; op < ops; op++ {
		if err := r.s.Run(sim.Time(op+1) * time.Second); err != nil {
			t.Fatal(err)
		}
		p := paths[next(len(paths))]
		switch next(12) {
		case 0:
			r.fs.Write(p, fsim.Var{Name: "step", Value: float64(next(500))})
		case 1:
			r.fs.Write(p, fsim.Var{Name: "errnorm", Value: float64(next(1000)) / 1000})
		case 2:
			r.fs.WriteVar(p, "step", float64(op))
		case 3:
			r.fs.Remove(p)
		case 4, 5:
			vars := [][]fsim.Var{
				{{Name: "step", Value: float64(tail)}},
				{{Name: "step", Value: float64(tail)}, {Name: "errnorm", Value: float64(next(1000)) / 1000}},
				{{Name: "errnorm", Value: float64(next(1000)) / 1000}},
				{{Name: "size", Value: 1}},
			}[next(4)]
			r.fs.Write(fmt.Sprintf("out/xgc1.%05d.bp", tail), vars...)
			tail += 1 + next(3)
		case 6:
			r.fs.Write(fmt.Sprintf("out/xgca.%05d.bp", tail), fsim.Var{Name: "step", Value: float64(tail)})
		default: // nothing changed: the poll answers from the cache
		}
		for _, use := range []spec.SensorUse{r.use, errUse} {
			gotR, gotStep, gotAt, gotOK := r.pollUse(use)
			wantR, wantStep, wantAt, wantOK := fullScanPoll(r.fs, r.tg.InfoSource, use.Info)
			if len(gotR) == 0 {
				gotR = nil
			}
			if !reflect.DeepEqual(gotR, wantR) || gotStep != wantStep || gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("op %d, info %q: poll = %v step %d at %v ok %v; full scan = %v step %d at %v ok %v",
					op, use.Info, gotR, gotStep, gotAt, gotOK, wantR, wantStep, wantAt, wantOK)
			}
		}
	}
	if len(r.c.scans) != 2 {
		t.Fatalf("client holds %d extractions, want one per (pattern, info) = 2", len(r.c.scans))
	}
}

// TestDiskScanPollEqualsFullScan: under a seeded interleaving of writes,
// variable updates and removals — on matching and non-matching paths, mid-
// list and appended at the tail, with idle stretches in between — every
// poll returns exactly what a full scan would, for both variables polled
// over the same pattern.
func TestDiskScanPollEqualsFullScan(t *testing.T) {
	for seed := int64(14); seed < 17; seed++ {
		rng := rand.New(rand.NewSource(seed))
		diskScanDrive(t, 1500, rng.Intn)
	}
}

// FuzzDiskScanPoll is the same comparison over fuzzer-chosen operations:
// each input byte is one draw, and an exhausted input draws n-1, which
// changes nothing.
func FuzzDiskScanPoll(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 1, 5, 2, 4, 0, 0, 3, 5, 1, 2, 4, 3, 0, 6, 5, 0, 1, 1})
	f.Add([]byte("\x00\x04\x00\x00\x02\x03\x05\x01\x01\x00\x00\x04\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return n - 1
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		diskScanDrive(t, 200, next)
	})
}

// TestDiskScanPollSharedByWorkers: NSTEPS and LAG read the same variable
// from the same files, so their workers share one extraction, and readings
// already handed to a worker are not disturbed by a later refresh.
func TestDiskScanPollSharedByWorkers(t *testing.T) {
	r := newScanRig(t)
	r.populate(3)
	lag := spec.SensorUse{SensorID: "LAG", Info: r.use.Info}
	a, _, _, _ := r.poll()
	b, _, _, _ := r.pollUse(lag)
	if len(r.c.scans) != 1 || &a[0] != &b[0] {
		t.Fatalf("two workers on one (pattern, info) made %d extractions", len(r.c.scans))
	}
	held := append([]float64(nil), a...)
	r.fs.WriteVar("out/xgc1.00000.bp", "step", 99)
	if fresh, _, _, _ := r.poll(); fresh[0] != 99 {
		t.Fatalf("poll after a write = %v, want the new value first", fresh)
	}
	if !reflect.DeepEqual(a, held) {
		t.Fatalf("a refresh overwrote readings a worker still holds: %v, were %v", a, held)
	}
}

// TestDiskScanPollAllocations pins the cost model: a poll over an unchanged
// filesystem allocates at most the readings it hands to ship, a poll after
// a change allocates a constant number of times whatever the file count,
// and a poll after a tail append allocates bytes that do not grow with it.
func TestDiskScanPollAllocations(t *testing.T) {
	perPoll := map[int]float64{}
	for _, files := range []int{10, 1000} {
		r := newScanRig(t)
		r.populate(files)
		r.poll()
		if n := testing.AllocsPerRun(50, func() { r.poll() }); n > 1 {
			t.Errorf("files=%d: unchanged poll allocates %v times, want <= 1", files, n)
		}
		// Writes that miss the pattern leave the poll on the cached path.
		if n := testing.AllocsPerRun(50, func() {
			r.fs.WriteVar("progress/fusion", "step", 1)
			r.poll()
		}); n > 1 {
			t.Errorf("files=%d: poll after an unrelated write allocates %v times, want <= 1", files, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			r.fs.WriteVar("out/xgc1.00000.bp", "step", 1)
			r.poll()
		}); n > 2 {
			t.Errorf("files=%d: poll after a change allocates %v times, want O(1)", files, n)
		}
		// A poll after each of 512 appended output files: only the new
		// file is read, and its reading lands in the extraction's backing
		// array, which grows geometrically.
		r.poll()
		const appends = 512
		var ms runtime.MemStats
		var bytes uint64
		for i := 0; i < appends; i++ {
			r.fs.Write(fmt.Sprintf("out/xgc1.%05d.bp", files+i), fsim.Var{Name: "step", Value: float64(files + i)})
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if readings, _, _, _ := r.poll(); len(readings) != files+i+1 {
				t.Fatalf("files=%d: poll after append %d read %d files", files, i, len(readings))
			}
			runtime.ReadMemStats(&ms)
			bytes += ms.TotalAlloc - before
		}
		perPoll[files] = float64(bytes) / appends
	}
	// A full re-read of 1 000 files allocates 8 KB; the appended polls are
	// bounded by the same small constant at both sizes.
	for files, b := range perPoll {
		if b > 64 {
			t.Errorf("files=%d: a poll after a tail append allocates %.1f B, want <= 64 whatever the file count", files, b)
		}
	}
	t.Logf("bytes per poll after a tail append: %v", perPoll)
}

// BenchmarkDiskScanPoll measures one DISKSCAN poll against filesystems of
// growing size: "unchanged" is the steady state between two output files,
// "changed" re-extracts after a matching file was rewritten, "appended"
// writes a new output file that sorts after every other and polls — the
// write's own cost included. files/op is the number of files the pattern
// matches (a third of the filesystem) before the run.
func BenchmarkDiskScanPoll(b *testing.B) {
	for _, files := range []int{10, 100, 1000} {
		for _, mode := range []string{"unchanged", "changed", "appended"} {
			b.Run(fmt.Sprintf("files=%d/%s", files, mode), func(b *testing.B) {
				r := newScanRig(b)
				r.populate(files)
				r.poll()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					want := files
					switch mode {
					case "changed":
						r.fs.WriteVar("out/xgc1.00000.bp", "step", float64(i))
					case "appended":
						// "x" sorts after every populated "%05d" step.
						r.fs.Write(fmt.Sprintf("out/xgc1.x%09d.bp", i), fsim.Var{Name: "step", Value: float64(files + i)})
						want = files + i + 1
					}
					if readings, _, _, ok := r.poll(); !ok || len(readings) != want {
						b.Fatalf("poll read %d files, want %d", len(readings), want)
					}
				}
				b.ReportMetric(float64(files), "files/op")
			})
		}
	}
}
