package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
	"dyflow/internal/server/fleet"
)

// lifeModel is the run lifecycle as a reference model: what a coordinator
// with one queue, one result cache and leases on its runs must do, with no
// persistence, no events and no locks in it.
type lifeModel struct {
	quota, depth int
	runs         map[string]*modelRun
	order        []string        // every acknowledged run, in admission order
	queue        []string        // front first
	cache        map[string]bool // job keys a finished run answers
	nextLease    int
	finishedHere int // terminal transitions since the last restart
	illegal      int // edges outside the table the driver tried on purpose
}

type modelRun struct {
	id, tenant, key string
	state           RunState
	flagged         bool   // a cancel was asked for
	worker, lease   string // while it runs in this process
	doneLease       string // the lease of the result that finished it, in this process
	endedHere       bool   // it reached its terminal state in this process
}

func (m *lifeModel) inflight(tenant string) (n int) {
	for _, r := range m.runs {
		if r.tenant == tenant && !r.state.Terminal() {
			n++
		}
	}
	return n
}

func (m *lifeModel) finish(r *modelRun, state RunState) {
	r.state, r.lease, r.endedHere = state, "", true
	m.finishedHere++
}

// requeue puts a running run back: at the front of the queue, or — a run a
// stopping coordinator aborted — recorded queued for the next process only.
func (m *lifeModel) requeue(r *modelRun, push bool) {
	r.state, r.worker, r.lease = StateQueued, "", ""
	if push {
		m.queue = append([]string{r.id}, m.queue...)
	}
}

// submit admits a job, or reports the 429 it is refused with.
func (m *lifeModel) submit(id, tenant, key string) (admitted bool) {
	r := &modelRun{id: id, tenant: tenant, key: key, state: StateQueued}
	switch {
	case m.cache[key]:
		m.finish(r, StateDone)
	case m.inflight(tenant) >= m.quota || len(m.queue) >= m.depth:
		return false
	default:
		m.queue = append(m.queue, id)
	}
	m.runs[id], m.order = r, append(m.order, id)
	return true
}

func (m *lifeModel) cancel(r *modelRun) {
	if r.state.Terminal() {
		return
	}
	r.flagged = true
	for i, id := range m.queue {
		if id == r.id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.finish(r, StateCanceled)
			break
		}
	}
}

// claim leases the first queued run that still needs a worker.
func (m *lifeModel) claim(worker string) *modelRun {
	for len(m.queue) > 0 {
		r := m.runs[m.queue[0]]
		m.queue = m.queue[1:]
		switch {
		case r.flagged:
			m.finish(r, StateCanceled)
		case m.cache[r.key]:
			m.finish(r, StateDone)
		default:
			r.state, r.worker, r.lease = StateRunning, worker, fmt.Sprintf("lease-%06d", m.nextLease)
			m.nextLease++
			return r
		}
	}
	return nil
}

func (r *modelRun) leasedTo(worker, lease string) bool {
	return r != nil && r.lease != "" && r.lease == lease && r.worker == worker
}

// The results a worker reports.
const (
	resultDone = iota
	resultFailed
	resultCanceled
	resultRequeue
	resultMissingBlob
	resultKinds
)

func (m *lifeModel) result(worker string, r *modelRun, lease string, kind int) (accepted bool) {
	if !r.leasedTo(worker, lease) {
		return r != nil && lease != "" && r.state.Terminal() && r.doneLease == lease // a retransmission
	}
	switch {
	case kind == resultRequeue || kind == resultMissingBlob:
		m.requeue(r, true)
		return kind == resultRequeue
	case kind == resultCanceled && !r.flagged:
		m.requeue(r, false)
		return true
	case kind == resultCanceled:
		m.finish(r, StateCanceled)
	case kind == resultFailed:
		m.finish(r, StateFailed)
	default:
		m.cache[r.key] = true
		m.finish(r, StateDone)
	}
	r.doneLease = lease
	return true
}

// expire lapses every lease, newest run first: the oldest ends up in front.
func (m *lifeModel) expire() {
	for i := len(m.order) - 1; i >= 0; i-- {
		if r := m.runs[m.order[i]]; r.lease != "" && r.flagged {
			m.finish(r, StateCanceled)
		} else if r.lease != "" {
			m.requeue(r, true)
		}
	}
}

// restart is the next process: every unfinished run is queued again, in
// admission order, and nothing that lived in memory is left.
func (m *lifeModel) restart() {
	m.queue, m.nextLease, m.finishedHere, m.illegal = nil, 0, 0, 0
	for _, id := range m.order {
		r := m.runs[id]
		r.flagged, r.worker, r.lease, r.doneLease, r.endedHere = false, "", "", "", false
		if !r.state.Terminal() {
			r.state = StateQueued
			m.queue = append(m.queue, id)
		}
	}
}

// lifeDriver plays one seeded sequence to a coordinator and to the model.
type lifeDriver struct {
	t    *testing.T
	tr   transport
	seed int64
	rng  *rand.Rand
	cfg  Config
	m    *lifeModel

	s       *Server
	c       fleet.Coordinator
	workers []string
	jobs    []exp.Job   // every job submitted so far
	granted []heldLease // every lease ever granted, in any process
	// streamed is how long each run's stream was when check last read it.
	streamed map[string]int
	step     int
	what     string
}

func (d *lifeDriver) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s seed %d step %d (%s): %s", d.tr.name, d.seed, d.step, d.what, fmt.Sprintf(format, args...))
}

// boot starts a coordinator on the sequence's directory and joins two
// workers to it by hand.
func (d *lifeDriver) boot() {
	s, err := New(d.cfg)
	if err != nil {
		d.fail("%v", err)
	}
	d.s, d.c, d.streamed = s, d.tr.dial(d.t, s), map[string]int{}
	first, err := d.c.Register(context.Background(), fleet.RegisterRequest{Name: "a", Slots: 4})
	if err != nil {
		d.fail("%v", err)
	}
	d.workers = []string{first.WorkerID, s.register("", fleet.RegisterRequest{Name: "b", Slots: 4}, time.Second).WorkerID}
}

// pick names a lease the way a worker might (pickLease), live by the model.
func (d *lifeDriver) pick() heldLease {
	return pickLease(d.rng, d.workers, d.granted, func(h heldLease) bool {
		return d.m.runs[h.run].leasedTo(h.worker, h.lease)
	})
}

func (d *lifeDriver) submit(job exp.Job) {
	tenant := []string{"alice", "bob"}[d.rng.Intn(2)]
	d.what = fmt.Sprintf("submit %s seed %d xml %v for %s", job.Scenario, job.Seed, job.XML != "", tenant)
	id := fmt.Sprintf("run-%06d", len(d.m.order)) // IDs are never reused, in any process
	st, err := d.s.Submit(tenant, job)
	if !d.m.submit(id, tenant, job.Key()) {
		var api *APIError
		if !errors.As(err, &api) || api.Code != http.StatusTooManyRequests {
			d.fail("answered %+v, %v; the model refuses it", st, err)
		}
		return
	}
	if err != nil || st.ID != id {
		d.fail("answered %+v, %v; the model admits it as %s", st, err, id)
	}
	d.jobs = append(d.jobs, job)
}

func (d *lifeDriver) run() {
	ctx := context.Background()
	const xml = "<dyflow><monitor/><decision/><arbitration/></dyflow>"
	d.boot()
	steps := 30 + d.rng.Intn(40)
	for d.step = 0; d.step < steps; d.step++ {
		switch op := d.rng.Intn(40); {
		case op < 5:
			d.submit(quick(int64(len(d.jobs))))
		case op < 8 && len(d.jobs) > 0:
			d.submit(d.jobs[d.rng.Intn(len(d.jobs))])
		case op < 10:
			d.submit(exp.Job{Scenario: exp.ScenarioQuickstart, Machine: "dt2", Seed: int64(d.rng.Intn(3)), XML: xml})
		case op < 13 && len(d.m.order) > 0:
			r := d.m.runs[d.m.order[d.rng.Intn(len(d.m.order))]]
			d.what = "cancel " + r.id
			if _, err := d.s.Cancel(r.id); err != nil {
				d.fail("%v", err)
			}
			d.m.cancel(r)
		case op < 21:
			w := d.workers[d.rng.Intn(2)]
			d.what = "claim by " + w
			claim, ok, err := d.c.Claim(ctx, w, 0)
			if err != nil {
				d.fail("%v", err)
			}
			want := d.m.claim(w)
			if ok != (want != nil) || ok && (claim.RunID != want.id || claim.LeaseID != want.lease) {
				d.fail("answered %v %+v, the model leases %+v", ok, claim, want)
			}
			if ok {
				d.granted = append(d.granted, heldLease{w, claim.RunID, claim.LeaseID})
			}
		case op < 25:
			h := d.pick()
			d.what = fmt.Sprintf("heartbeat %+v", h)
			hb, err := d.c.Heartbeat(ctx, h.worker, fleet.HeartbeatRequest{RunID: h.run, LeaseID: h.lease, SimNs: int64(d.step)})
			if err != nil {
				d.fail("%v", err)
			}
			r := d.m.runs[h.run]
			if valid := r.leasedTo(h.worker, h.lease); hb.Valid != valid || hb.Cancel != (valid && r.flagged) {
				d.fail("answered %+v, the model valid=%v", hb, valid)
			}
		case op < 34:
			h := d.pick()
			kind := d.rng.Intn(resultKinds + 2) // done is the likeliest
			req := fleet.ResultRequest{RunID: h.run, LeaseID: h.lease}
			r := d.m.runs[h.run]
			switch kind {
			case resultFailed:
				req.Error = "boom"
			case resultCanceled:
				req.Canceled = true
			case resultRequeue:
				req.Requeue, req.Error = true, "blob plane degraded"
			case resultMissingBlob:
				req.Artifacts = map[string]string{exp.ArtifactReport: fleet.Digest([]byte(h.lease + " never uploaded"))}
			default:
				kind = resultDone
				// The bytes are the job's, so that every run of it agrees.
				data := []byte("report of " + h.run)
				if r != nil {
					data = []byte("report of job " + r.key)
				}
				if digest := fleet.Digest(data); !d.c.HasBlob(ctx, digest) {
					if err := d.c.PutBlob(ctx, digest, data); err != nil {
						d.fail("put blob: %v", err)
					}
				}
				req.Converged, req.SimEndNs = true, int64(time.Second)
				req.Artifacts = map[string]string{exp.ArtifactReport: fleet.Digest(data)}
			}
			d.what = fmt.Sprintf("result %+v kind %d", h, kind)
			res, err := d.c.Result(ctx, h.worker, req)
			if err != nil {
				d.fail("%v", err)
			}
			if want := d.m.result(h.worker, r, h.lease, kind); res.Accepted != want {
				d.fail("answered %+v, the model accepted=%v", res, want)
			}
		case op < 36:
			// Two TTLs from now every lease has lapsed; now, none has.
			at, all := time.Now(), d.rng.Intn(2) == 0
			if all {
				at = at.Add(2 * d.cfg.LeaseTTL)
				d.m.expire()
			}
			d.what = fmt.Sprintf("expire, every lease %v", all)
			d.s.mu.Lock()
			d.s.expireLeasesLocked(at)
			d.s.mu.Unlock()
		case op < 38:
			d.illegalAttempt()
		case op < 39:
			d.what = "shutdown and restart"
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err := d.s.Shutdown(sctx)
			cancel()
			if err != nil {
				d.fail("%v", err)
			}
			d.m.restart()
			d.boot()
		default:
			d.what = "crash and restart"
			d.s.Close()
			d.m.restart()
			d.boot()
		}
		d.check()
	}
}

// illegalAttempt asks one of the three transitions for an edge the table
// does not have, on a run that is resident. It must be refused and counted,
// and — what check then verifies — must change nothing.
func (d *lifeDriver) illegalAttempt() {
	var resident []*modelRun
	for _, id := range d.m.order {
		if r := d.m.runs[id]; !r.state.Terminal() {
			resident = append(resident, r)
		}
	}
	if len(resident) == 0 {
		return
	}
	r := resident[d.rng.Intn(len(resident))]
	var states []RunState
	var causes []string
	for e := range lifecycle {
		states, causes = append(states, e.to), append(causes, e.cause)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	sort.Strings(causes)
	to, cause := states[d.rng.Intn(len(states))], causes[d.rng.Intn(len(causes))]
	if to == StateRunning {
		cause = "claim" // leaseRun knows no other
	}
	if lifecycle[edge{r.state, to, cause}] {
		return
	}
	d.what = fmt.Sprintf("illegal %s: %s → %s (%s)", r.id, r.state, to, cause)
	var err error
	if to == StateRunning {
		_, _, err = d.s.leaseRun(d.workers[0], r.id)
	} else {
		d.s.mu.Lock()
		if to == StateQueued {
			err = d.s.resetToQueuedLocked(d.s.runs[r.id], cause)
		} else {
			err = d.s.finishLocked(d.s.runs[r.id], to, cause, "not a real failure")
		}
		d.s.mu.Unlock()
	}
	if err == nil {
		d.fail("the transition was made")
	}
	d.m.illegal++
}

// check holds the coordinator to the model and to its own invariants.
func (d *lifeDriver) check() {
	d.t.Helper()
	s, m := d.s, d.m
	value := func(name string) float64 { v, _ := s.Registry().Value(name); return v }

	// This process counted exactly the endings the model saw in it.
	if got := value("dyflow_server_runs_total"); got != float64(m.finishedHere) {
		d.fail("runs_total = %v, the model saw %d runs end in this process", got, m.finishedHere)
	}
	if got := value("dyflow_server_illegal_transitions_total"); got != float64(m.illegal) {
		d.fail("illegal_transitions_total = %v beside the %d edges tried on purpose", got, m.illegal)
	}
	if got := s.QueueDepth(); got != len(m.queue) {
		d.fail("%d runs are queued, the model queues %v", got, m.queue)
	}

	// History ∪ resident = acknowledged, resident = unfinished, and every
	// run is in the state the model has it in: a terminal state is left by
	// no step of the model, so a run ends exactly once.
	known := map[string]RunState{}
	s.History().EachMeta(func(meta *runstore.Meta) bool { known[meta.ID] = RunState(meta.State); return true })
	type resident struct {
		id, worker, lease string
		state             RunState
	}
	var residents []resident
	inflight := map[string]int{}
	s.mu.Lock()
	for tenant, n := range s.inflight {
		inflight[tenant] = n
	}
	for id, r := range s.runs {
		residents = append(residents, resident{id, r.Worker, r.LeaseID, r.State})
	}
	s.mu.Unlock()
	leased := 0
	for _, r := range residents {
		known[r.id] = r.state
		mr := m.runs[r.id]
		if mr == nil || mr.state.Terminal() {
			d.fail("%s is resident; the model has it %+v", r.id, mr)
		}
		// Running ⇔ it holds a lease in this process, the one the model granted.
		if (r.state == StateRunning) != (r.lease != "") || r.lease != mr.lease || r.lease != "" && r.worker != mr.worker {
			d.fail("%s is %s under lease %q of %q, the model has lease %q of %q", r.id, r.state, r.lease, r.worker, mr.lease, mr.worker)
		}
		if r.lease != "" {
			leased++
		}
	}
	if len(known) != len(m.order) {
		d.fail("history and the resident runs hold %d runs, %d were acknowledged", len(known), len(m.order))
	}
	unfinished := map[string]int{}
	for _, id := range m.order {
		if r := m.runs[id]; known[id] != r.state {
			d.fail("%s was acknowledged and is %q in history or memory, the model has it %q", id, known[id], r.state)
		} else if !r.state.Terminal() {
			unfinished[r.tenant]++
		}
	}
	if !reflect.DeepEqual(inflight, unfinished) {
		d.fail("inflight = %v, the unfinished runs are %v", inflight, unfinished)
	}
	if got := value("dyflow_server_active_runs"); got != float64(leased) {
		d.fail("active_runs = %v with %d runs leased", got, leased)
	}

	// A stream ends in exactly one terminal event, and only a finished run's does.
	for _, id := range m.order {
		n := s.events.Len(id)
		if n == d.streamed[id] {
			continue // nothing new — or nothing at all: it ended in an earlier process
		}
		d.streamed[id] = n
		sub := s.events.Subscribe(id, 0)
		evs, _ := sub.Poll()
		sub.Close()
		for i, ev := range evs {
			if ev.Type.Terminal() != (m.runs[id].endedHere && i == len(evs)-1) {
				d.fail("%s: event %d of %d is %s; the model has the run %+v", id, i+1, len(evs), ev.Type, m.runs[id])
			}
		}
	}
}

// TestProperty_Lifecycle_EqualsModel: generated sequences of submissions
// (new jobs, repeats, XML overrides), cancels, claims, heartbeats, results of
// every kind under live, stale and retransmitted leases, lease expiries at a
// chosen instant, transitions the table does not have, graceful shutdowns
// and crashes with a restart on the same directory — the worker played by
// hand over each transport — against lifeModel. After every step the
// coordinator answers as the model does and its invariants hold (check);
// at the end a client cannot tell the transports apart.
func TestProperty_Lifecycle_EqualsModel(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	forEachTransport(t, func(t *testing.T, tr transport) (seen []observed) {
		for seed := 0; seed < seeds; seed++ {
			d := &lifeDriver{t: t, tr: tr, seed: int64(seed), rng: rand.New(rand.NewSource(int64(seed))),
				cfg: Config{Workers: -1, TenantQuota: 5, QueueDepth: 6, CkptDir: t.TempDir(),
					LeaseTTL: time.Hour, EventBuffer: 1 << 10, Logger: quietLogger},
				m: &lifeModel{quota: 5, depth: 6, runs: map[string]*modelRun{}, cache: map[string]bool{}}}
			d.run()
			for _, id := range d.m.order {
				seen = append(seen, observe(t, d.s, id))
			}
			d.s.Close()
		}
		return seen
	})
}

// FuzzEventCursor: whatever a client sends as Last-Event-ID, the cursor it
// resumes from is a sequence number of this process or 0 — a cursor of
// another epoch replays everything, a bare integer is itself.
func FuzzEventCursor(f *testing.F) {
	s, err := New(Config{Workers: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	epoch := s.events.Epoch()
	for _, v := range []string{"", "7", "0.7", "1.2.3", ".", "-1", "7.", fmt.Sprint(epoch, ".7"), fmt.Sprint(epoch, ".-7"),
		"18446744073709551615", "18446744073709551616", " 7", "٧"} {
		f.Add(v, int64(0), uint64(7))
	}
	f.Fuzz(func(t *testing.T, v string, otherEpoch int64, seq uint64) {
		got := s.parseEventCursor(v)
		if want, err := strconv.ParseUint(v, 10, 64); err == nil && got != want {
			t.Fatalf("%q resumes from %d, want %d", v, got, want)
		}
		if got := s.parseEventCursor(strconv.FormatUint(seq, 10)); got != seq {
			t.Fatalf("bare %d resumes from %d", seq, got)
		}
		if got := s.parseEventCursor(fmt.Sprintf("%d.%d", epoch, seq)); got != seq {
			t.Fatalf("%d of this epoch resumes from %d", seq, got)
		}
		if otherEpoch != epoch {
			if got := s.parseEventCursor(fmt.Sprintf("%d.%d", otherEpoch, seq)); got != 0 {
				t.Fatalf("%d of epoch %d resumes from %d, want a full replay", seq, otherEpoch, got)
			}
		}
	})
}

// TestLifecycleTableIsDocumented: DESIGN.md §13 prints the lifecycle table,
// edge for edge — every edge of the code's is a row there, and it has no row
// besides.
func TestLifecycleTableIsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for e := range lifecycle {
		from := "`" + string(e.from) + "`"
		if e.from == stateNew {
			from = "(new)"
		}
		if row := fmt.Sprintf("| %s | `%s` | `%s` |", from, e.to, e.cause); !strings.Contains(string(doc), row) {
			t.Errorf("DESIGN.md §13 has no row %q", row)
		}
	}
	rows := regexp.MustCompile("(?m)^\\| (\\(new\\)|`\\w+`) \\| `\\w+` \\| `\\w+` \\|").FindAllString(string(doc), -1)
	if len(rows) != len(lifecycle) {
		t.Errorf("DESIGN.md §13 has %d edges, the code's table %d", len(rows), len(lifecycle))
	}
}
