package sim

// The process schedule, pinned against the implementation it replaced.
// Until the kernel ran processes as runtime coroutines (iter.Pull), a
// handoff was a pair of unbuffered channel operations. The sha256 of every
// generated program's trace below was recorded with that channel kernel and
// is never re-recorded: a change to how the baton moves must reproduce the
// old schedule exactly — the same (Now, process, operation, error) sequence
// and the same Dispatched and Handoffs counts.

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Operation kinds a generated process performs.
const (
	opSleep = iota
	opSleepUninterruptible
	opWait
	opBroadcast
	opPut
	opGet
	opGetAll
	opInterrupt
	opJoin
	opSpawn
	opPanic
	numOps
)

type schedOp struct {
	kind    int
	d       time.Duration
	idx     int // signal, queue or top-level process index
	val     int // Put's value
	guarded bool
	join    bool      // opSpawn: the parent joins the child right away
	child   []schedOp // opSpawn: the child's program
}

type schedProc struct {
	guarded bool
	ops     []schedOp
}

// kernelAct is an interrupt (proc >= 0) or a broadcast (sig) scheduled from
// kernel context.
type kernelAct struct {
	at   time.Duration
	proc int
	sig  int
}

type schedProgram struct {
	signals int
	queues  []int // capacities, all bounded
	procs   []schedProc
	kernel  []kernelAct
}

// chooser is the generator's source of choices: a *rand.Rand for the
// seeded property, the fuzzer's bytes for FuzzProcSchedule.
type chooser interface{ Intn(n int) int }

// byteChooser draws choices from a byte string, then zeros once it runs out
// (which generates the smallest program the grammar allows).
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

func genProgram(c chooser) *schedProgram {
	prog := &schedProgram{signals: 1 + c.Intn(2)}
	for i, n := 0, 1+c.Intn(2); i < n; i++ {
		prog.queues = append(prog.queues, 1+c.Intn(3))
	}
	nprocs := 2 + c.Intn(5)
	for i := 0; i < nprocs; i++ {
		guarded := c.Intn(2) == 0
		prog.procs = append(prog.procs, schedProc{guarded: guarded, ops: genOps(c, prog, nprocs, guarded, true)})
	}
	for i, n := 0, c.Intn(4); i < n; i++ {
		a := kernelAct{at: time.Duration(c.Intn(20)) * time.Millisecond, proc: -1}
		if c.Intn(2) == 0 {
			a.proc = c.Intn(nprocs)
		} else {
			a.sig = c.Intn(prog.signals)
		}
		prog.kernel = append(prog.kernel, a)
	}
	return prog
}

func genOps(c chooser, prog *schedProgram, nprocs int, guarded, top bool) []schedOp {
	n := 2 + c.Intn(10)
	ops := make([]schedOp, 0, n)
	for i := 0; i < n; i++ {
		o := schedOp{kind: c.Intn(numOps), d: time.Duration(c.Intn(6)) * time.Millisecond}
		switch o.kind {
		case opWait, opBroadcast:
			o.idx = c.Intn(prog.signals)
		case opPut, opGet, opGetAll:
			o.idx = c.Intn(len(prog.queues))
			o.val = c.Intn(1000)
		case opInterrupt, opJoin:
			o.idx = c.Intn(nprocs)
		case opSpawn:
			if !top {
				o.kind = opSleep
				break
			}
			o.guarded = c.Intn(2) == 0
			o.join = c.Intn(2) == 0
			o.child = genOps(c, prog, nprocs, o.guarded, false)
		case opPanic:
			if !guarded {
				o.kind = opSleepUninterruptible
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// runSchedule runs prog on a fresh simulation seeded with seed — to idle,
// then Stop — and returns its trace: one line per completed operation, then
// the kernel's counts at idle and after Stop.
func runSchedule(prog *schedProgram, seed int64) string {
	s := New(seed)
	var b strings.Builder
	rec := func(name, op string, err error) {
		fmt.Fprintf(&b, "%d %s %s %v\n", s.Now(), name, op, err)
	}
	sigs := make([]*Signal, prog.signals)
	for i := range sigs {
		sigs[i] = NewSignal()
	}
	qs := make([]*Queue[int], len(prog.queues))
	for i, capacity := range prog.queues {
		qs[i] = NewQueue[int](capacity)
	}
	procs := make([]*Proc, len(prog.procs))

	var spawn func(name string, guarded bool, ops []schedOp) *Proc
	body := func(ops []schedOp) func(*Proc) {
		return func(p *Proc) {
			rec(p.name, "start", nil)
			for i, o := range ops {
				var err error
				var op string
				switch o.kind {
				case opSleep:
					op = fmt.Sprintf("sleep %v", o.d)
					err = p.Sleep(o.d)
				case opSleepUninterruptible:
					op = fmt.Sprintf("sleep-uninterruptible %v", o.d)
					err = p.SleepUninterruptible(o.d)
				case opWait:
					op = fmt.Sprintf("wait s%d", o.idx)
					err = p.Wait(sigs[o.idx])
				case opBroadcast:
					op = fmt.Sprintf("broadcast s%d", o.idx)
					sigs[o.idx].Broadcast()
				case opPut:
					op = fmt.Sprintf("put q%d %d", o.idx, o.val)
					err = qs[o.idx].Put(p, o.val)
				case opGet:
					var v int
					v, err = qs[o.idx].Get(p)
					op = fmt.Sprintf("get q%d -> %d", o.idx, v)
				case opGetAll:
					var vs []int
					vs, err = qs[o.idx].GetAll(p, nil)
					op = fmt.Sprintf("getall q%d -> %v", o.idx, vs)
				case opInterrupt:
					target := procs[o.idx]
					ok := target.Interrupt(errors.New("by " + p.name))
					op = fmt.Sprintf("interrupt %s %t", target.name, ok)
				case opJoin:
					op = "join " + procs[o.idx].name
					err = p.Join(procs[o.idx])
				case opSpawn:
					child := spawn(fmt.Sprintf("%s.%d", p.name, i), o.guarded, o.child)
					op = "spawn " + child.name
					if o.join {
						op += " joined"
						err = p.Join(child)
					}
				case opPanic:
					panic(fmt.Sprintf("op %d", i))
				}
				rec(p.name, op, err)
				if errors.Is(err, ErrStopped) {
					return
				}
			}
			rec(p.name, "exit", nil)
		}
	}
	spawn = func(name string, guarded bool, ops []schedOp) *Proc {
		if !guarded {
			return s.Spawn(name, body(ops))
		}
		return s.SpawnGuarded(name, body(ops), func(r any) { rec(name, fmt.Sprintf("recovered %v", r), nil) })
	}

	for i, sp := range prog.procs {
		procs[i] = spawn(fmt.Sprintf("p%d", i), sp.guarded, sp.ops)
	}
	for _, a := range prog.kernel {
		s.At(a.at, func() {
			if a.proc >= 0 {
				ok := procs[a.proc].Interrupt(errors.New("by kernel"))
				rec("kernel", fmt.Sprintf("interrupt %s %t", procs[a.proc].name, ok), nil)
				return
			}
			sigs[a.sig].Broadcast()
			rec("kernel", fmt.Sprintf("broadcast s%d", a.sig), nil)
		})
	}

	err := s.RunUntilIdle()
	fmt.Fprintf(&b, "idle now=%d pending=%d dispatched=%d handoffs=%d err=%v\n",
		s.Now(), s.Pending(), s.Dispatched(), s.Handoffs(), err)
	s.Stop()
	fmt.Fprintf(&b, "stopped now=%d pending=%d dispatched=%d handoffs=%d\n",
		s.Now(), s.Pending(), s.Dispatched(), s.Handoffs())
	return b.String()
}

// readScheduleHashes reads testdata/proc_schedule.sha256: "seed hex" lines.
func readScheduleHashes(t *testing.T) map[int64]string {
	t.Helper()
	f, err := os.Open("testdata/proc_schedule.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[int64]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		seed, hash, ok := strings.Cut(sc.Text(), " ")
		n, err := strconv.ParseInt(seed, 10, 64)
		if !ok || err != nil {
			t.Fatalf("malformed line %q", sc.Text())
		}
		want[n] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestProperty_ProcSchedule_EqualsParent(t *testing.T) {
	want := readScheduleHashes(t)
	if len(want) != 200 {
		t.Fatalf("testdata holds %d seeds, want 200", len(want))
	}
	for seed := int64(1); seed <= 200; seed++ {
		trace := runSchedule(genProgram(rand.New(rand.NewSource(seed))), seed)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != want[seed] {
			t.Fatalf("seed %d: schedule hash %s, the channel kernel's %s; trace:\n%s", seed, got, want[seed], trace)
		}
	}
}

// FuzzProcSchedule: any generated program runs to the same trace twice, and
// Stop leaves no process goroutine behind.
func FuzzProcSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 2, 4, 0, 9, 3, 7, 1, 10, 0, 2, 8, 1, 6, 5})
	f.Add([]byte("interrupt, join, spawn and panic"))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := runtime.NumGoroutine()
		first := runSchedule(genProgram(&byteChooser{b: data}), 1)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after Stop, %d before the run", n, before)
		}
		if second := runSchedule(genProgram(&byteChooser{b: data}), 1); second != first {
			t.Fatalf("same program, two traces:\n%s\n---\n%s", first, second)
		}
	})
}
