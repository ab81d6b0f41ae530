package sensor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// scanRig is a DISKSCAN client that is never started: the tests and
// benchmarks below drive pollOnce directly, as a poll worker would.
type scanRig struct {
	s   *sim.Sim
	fs  *fsim.FS
	c   *Client
	tg  spec.MonitorTarget
	use spec.SensorUse
	def *spec.SensorDef
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
	c := NewClient("client0", env, msg.NewBus(s), "monitor-server", cfg, cfg.Targets, &fakeWorkload{}, Costs{})
	tg := cfg.Targets[0] // XGC1 over out/xgc1.*.bp
	return &scanRig{s: s, fs: fs, c: c, tg: tg, use: tg.Sensors[0], def: cfg.Sensors[tg.Sensors[0].SensorID]}
}

// populate writes n files the scan matches among 2n it does not.
func (r *scanRig) populate(n int) {
	for i := 0; i < n; i++ {
		r.fs.Write(fmt.Sprintf("out/xgc1.%05d.bp", i), 1, map[string]float64{"step": float64(i)})
		r.fs.Write(fmt.Sprintf("out/xgca.%05d.bp", i), 1, map[string]float64{"step": float64(i)})
		r.fs.Write(fmt.Sprintf("ckpt/xgc1.%05d", i), 1, map[string]float64{"step": float64(i)})
	}
}

func (r *scanRig) poll() ([]float64, int, sim.Time, bool) {
	return r.c.pollOnce(r.tg, r.use, r.def)
}

// fullScanPoll is the disk-scan poll as it stood before the cache: glob
// everything, copy it, read one variable per file.
func fullScanPoll(fs *fsim.FS, pattern, info string) (readings []float64, step int, genAt sim.Time, ok bool) {
	for _, f := range fs.Glob(pattern) {
		if v, found := f.Vars[info]; found {
			readings = append(readings, v)
			if f.MTime > genAt {
				genAt = f.MTime
			}
			if int(f.Vars["step"]) > step {
				step = int(f.Vars["step"])
			}
		}
	}
	return readings, step, genAt, len(readings) > 0
}

// TestDiskScanPollEqualsFullScan: under a seeded interleaving of writes,
// variable updates and removals — on matching and non-matching paths, with
// idle stretches in between — every poll returns exactly what a full scan
// would, for both variables polled over the same pattern.
func TestDiskScanPollEqualsFullScan(t *testing.T) {
	r := newScanRig(t)
	rng := rand.New(rand.NewSource(14))
	errUse := spec.SensorUse{SensorID: r.use.SensorID, Info: "errnorm"}
	paths := []string{"out/xgc1.00001.bp", "out/xgc1.00002.bp", "out/xgc1.00003.bp", "out/xgca.00001.bp", "out/xgc1.bp", "progress/fusion"}
	for op := 0; op < 2000; op++ {
		if err := r.s.Run(sim.Time(op+1) * time.Second); err != nil {
			t.Fatal(err)
		}
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(8) {
		case 0:
			r.fs.Write(p, 1, map[string]float64{"step": float64(rng.Intn(500))})
		case 1:
			r.fs.Write(p, 1, map[string]float64{"errnorm": rng.Float64()})
		case 2:
			r.fs.WriteVar(p, "step", float64(op))
		case 3:
			r.fs.Remove(p)
		default: // nothing changed: the poll answers from the cache
		}
		for _, use := range []spec.SensorUse{r.use, errUse} {
			gotR, gotStep, gotAt, gotOK := r.c.pollOnce(r.tg, use, r.def)
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

// TestDiskScanPollSharedByWorkers: NSTEPS and LAG read the same variable
// from the same files, so their workers share one extraction, and readings
// already handed to a worker are not disturbed by a later refresh.
func TestDiskScanPollSharedByWorkers(t *testing.T) {
	r := newScanRig(t)
	r.populate(3)
	lag := spec.SensorUse{SensorID: "LAG", Info: r.use.Info}
	a, _, _, _ := r.poll()
	b, _, _, _ := r.c.pollOnce(r.tg, lag, r.def)
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
// filesystem allocates at most the readings it hands to ship, and a poll
// after a change allocates a constant amount whatever the file count.
func TestDiskScanPollAllocations(t *testing.T) {
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
	}
}

// BenchmarkDiskScanPoll measures one DISKSCAN poll against filesystems of
// growing size: "unchanged" is the steady state between two output files,
// "changed" re-extracts after a matching file was rewritten. files/op is
// the number of files the pattern matches (a third of the filesystem).
func BenchmarkDiskScanPoll(b *testing.B) {
	for _, files := range []int{10, 100, 1000} {
		for _, changed := range []bool{false, true} {
			mode := "unchanged"
			if changed {
				mode = "changed"
			}
			b.Run(fmt.Sprintf("files=%d/%s", files, mode), func(b *testing.B) {
				r := newScanRig(b)
				r.populate(files)
				r.poll()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if changed {
						r.fs.WriteVar("out/xgc1.00000.bp", "step", float64(i))
					}
					if readings, _, _, ok := r.poll(); !ok || len(readings) != files {
						b.Fatalf("poll read %d files, want %d", len(readings), files)
					}
				}
				b.ReportMetric(float64(files), "files/op")
			})
		}
	}
}
