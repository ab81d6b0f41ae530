package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/server/fleet"
)

// refLeases is the lease half of fleet.Manager as it stood while the lease
// was the manager's: a table of run → lease under the manager's own mutex,
// beside the copy the coordinator kept on the run. It is kept here, where
// nothing but a test can reach it, as the reference the run's lease is
// compared with. Two things differ from what was deleted: the sweep
// goroutine's body is expire, called with an instant, and a worker is a
// name in a set.
type refLeases struct {
	ttl      time.Duration
	onExpire func(runID, workerID string)

	mu        sync.Mutex
	workers   map[string]bool
	leases    map[string]*refLease // run ID → current lease
	nextLease int

	claims     *obs.Counter // dyflow_server_fleet_claims_total
	heartbeats *obs.Counter // dyflow_server_fleet_heartbeats_total
	expiries   *obs.Counter // dyflow_server_fleet_lease_expiries_total
	results    *obs.Counter // dyflow_server_fleet_results_total
	stale      *obs.Counter // dyflow_server_fleet_stale_results_total
}

// refLease is one worker's claim on one run.
type refLease struct {
	ID       string
	RunID    string
	WorkerID string
	Expires  time.Time
}

// leaseSeries are the five series the lease moved with.
var leaseSeries = []string{
	"dyflow_server_fleet_claims_total",
	"dyflow_server_fleet_heartbeats_total",
	"dyflow_server_fleet_lease_expiries_total",
	"dyflow_server_fleet_results_total",
	"dyflow_server_fleet_stale_results_total",
}

func newRefLeases(reg *obs.Registry, ttl time.Duration, onExpire func(runID, workerID string)) *refLeases {
	count := func(name string) *obs.Counter { return reg.Counter(name, "").With() }
	return &refLeases{
		ttl:        ttl,
		onExpire:   onExpire,
		workers:    map[string]bool{},
		leases:     map[string]*refLease{},
		claims:     count(leaseSeries[0]),
		heartbeats: count(leaseSeries[1]),
		expiries:   count(leaseSeries[2]),
		results:    count(leaseSeries[3]),
		stale:      count(leaseSeries[4]),
	}
}

// expire is one tick of the sweep at now.
func (m *refLeases) expire(now time.Time) {
	var lapsed []*refLease
	m.mu.Lock()
	for runID, l := range m.leases {
		if now.After(l.Expires) {
			delete(m.leases, runID)
			lapsed = append(lapsed, l)
		}
	}
	m.mu.Unlock()
	for _, l := range lapsed {
		m.expiries.Inc()
		if m.onExpire != nil {
			m.onExpire(l.RunID, l.WorkerID)
		}
	}
}

// Grant leases a run to a registered worker.
func (m *refLeases) Grant(workerID, runID string) (leaseID string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.workers[workerID] {
		return "", fmt.Errorf("fleet: unknown worker %q", workerID)
	}
	if have := m.leases[runID]; have != nil {
		return "", fmt.Errorf("fleet: run %s already leased to %s", runID, have.WorkerID)
	}
	leaseID = fmt.Sprintf("lease-%06d", m.nextLease)
	m.nextLease++
	m.leases[runID] = &refLease{ID: leaseID, RunID: runID, WorkerID: workerID, Expires: time.Now().Add(m.ttl)}
	m.claims.Inc()
	return leaseID, nil
}

// Heartbeat renews a lease, reporting whether it is still current.
func (m *refLeases) Heartbeat(workerID, runID, leaseID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.leases[runID]
	if l == nil || l.WorkerID != workerID || l.ID != leaseID {
		return false
	}
	l.Expires = time.Now().Add(m.ttl)
	m.heartbeats.Inc()
	return true
}

// Release consumes a lease for a result upload. It reports false — and the
// coordinator ignores the upload — when the lease is not current: expired
// and requeued, revoked by cancellation, or held by another worker. This
// is the at-most-once gate: only the holder of the live lease can finish
// the run.
func (m *refLeases) Release(workerID, runID, leaseID string) bool {
	m.mu.Lock()
	l := m.leases[runID]
	ok := l != nil && l.WorkerID == workerID && l.ID == leaseID
	if ok {
		delete(m.leases, runID)
	}
	m.mu.Unlock()
	if ok {
		m.results.Inc()
	} else {
		m.stale.Inc()
	}
	return ok
}

// Revoke drops a run's lease without a result (cancellation, shutdown). A
// later upload from the old holder is rejected as stale.
func (m *refLeases) Revoke(runID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.leases, runID)
}

// Leased reports whether a run currently has a live lease.
func (m *refLeases) Leased(runID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leases[runID] != nil
}

// LeasedRuns returns the IDs of all currently leased runs.
func (m *refLeases) LeasedRuns() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.leases))
	for id := range m.leases {
		out = append(out, id)
	}
	return out
}

// quietLogger swallows the requeue and refusal lines a generated sequence
// produces by the hundred.
var quietLogger = log.New(io.Discard, "", 0)

// heldLease is one (worker, run, lease) triple: a lease as a worker names it.
type heldLease struct{ worker, run, lease string }

// pickLease names a lease the way a worker might: mostly one that is live,
// else any granted so far — superseded, finished, from an earlier process —
// and now and then the right lease from the wrong worker, the right worker
// with another lease or none; before any was granted, one that never existed.
func pickLease(rng *rand.Rand, workers []string, granted []heldLease, live func(heldLease) bool) heldLease {
	h := heldLease{workers[0], "run-999999", "lease-999999"}
	var now []heldLease
	for _, g := range granted {
		if live(g) {
			now = append(now, g)
		}
	}
	if len(now) > 0 && rng.Intn(3) > 0 {
		h = now[rng.Intn(len(now))]
	} else if len(granted) > 0 {
		h = granted[rng.Intn(len(granted))]
	}
	switch rng.Intn(8) {
	case 0:
		h.worker = workers[rng.Intn(len(workers))]
	case 1:
		if len(granted) > 0 {
			h.lease = granted[rng.Intn(len(granted))].lease
		}
	case 2:
		h.lease = ""
	}
	return h
}

// TestProperty_RunLease_EqualsManagerReference: the lease a run carries
// answers every question the manager's lease table answered, the same way.
// Seeded sequences of claims, heartbeats and results — under the right
// lease, a stale one, another worker's, a finished run's — cancels, lapses
// at chosen instants and a shutdown are played to a coordinator over each
// transport and, call for call as the coordinator used to make them, to
// the reference. After every step the two hold the same leases and count
// the same claims, heartbeats, expiries, results and stale results, and
// every heartbeat and result was answered as the reference answers it.
func TestProperty_RunLease_EqualsManagerReference(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 100
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				driveLeaseSequence(t, tr, int64(seed))
			}
		})
	}
}

func driveLeaseSequence(t *testing.T, tr transport, seed int64) {
	const ttl = time.Hour // the coordinator's own ticker never fires inside a sequence
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	s, err := New(Config{Workers: -1, TenantQuota: -1, QueueDepth: 1 << 10, LeaseTTL: ttl, Logger: quietLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var c fleet.Coordinator = tr.dial(t, s)
	refReg := obs.NewRegistry()
	ref := newRefLeases(refReg, ttl, nil)

	first, err := c.Register(ctx, fleet.RegisterRequest{Name: "a", Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	workers := []string{first.WorkerID, s.register("", fleet.RegisterRequest{Name: "b", Slots: 4}, time.Second).WorkerID}
	for _, w := range workers {
		ref.workers[w] = true
	}

	var (
		runs     []string
		granted  []heldLease           // every lease ever granted, live or not
		finished = map[string]string{} // run → the lease its accepted terminal result named
		step     int
		what     string
		stopped  bool
	)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d step %d (%s): %s", tr.name, seed, step, what, fmt.Sprintf(format, args...))
	}
	terminal := func(run string) bool {
		st, err := s.RunStatus(run)
		return err == nil && st.State.Terminal()
	}
	live := func(h heldLease) bool { return ref.Leased(h.run) && ref.leases[h.run].ID == h.lease }
	pick := func() heldLease { return pickLease(rng, workers, granted, live) }

	steps := 20 + rng.Intn(40)
	for step = 0; step < steps; step++ {
		op := rng.Intn(20)
		if stopped {
			op = 8 + rng.Intn(7) // a stopped coordinator is only told of heartbeats and results
		}
		switch {
		case op < 4:
			what = "submit"
			st, err := s.Submit("alice", quick(int64(len(runs))))
			if err != nil {
				fail("%v", err)
			}
			runs = append(runs, st.ID)
		case op < 8:
			what = "claim"
			w := workers[rng.Intn(2)]
			if rng.Intn(10) == 0 {
				// A worker that never registered is refused before a run is popped.
				_, ok, err := c.Claim(ctx, "worker-nope", 0)
				if _, refErr := ref.Grant("worker-nope", "run-999999"); ok || err == nil || refErr == nil {
					fail("an unregistered worker's claim: ok=%v err=%v, the reference %v", ok, err, refErr)
				}
			}
			claim, ok, err := c.Claim(ctx, w, 0)
			if err != nil {
				fail("%v", err)
			}
			if ok {
				lease, err := ref.Grant(w, claim.RunID)
				if err != nil || lease != claim.LeaseID {
					fail("%s leased to %s as %s; the reference says %q, %v", claim.RunID, w, claim.LeaseID, lease, err)
				}
				granted = append(granted, heldLease{w, claim.RunID, claim.LeaseID})
			}
		case op < 11:
			h := pick()
			what = fmt.Sprintf("heartbeat %+v", h)
			hb, err := c.Heartbeat(ctx, h.worker, fleet.HeartbeatRequest{RunID: h.run, LeaseID: h.lease})
			if err != nil {
				fail("%v", err)
			}
			if want := ref.Heartbeat(h.worker, h.run, h.lease); hb.Valid != want {
				fail("answered valid=%v, the reference %v", hb.Valid, want)
			}
		case op < 15:
			h := pick()
			req := fleet.ResultRequest{RunID: h.run, LeaseID: h.lease}
			missing := false
			switch kind := rng.Intn(6); kind {
			case 0:
				req.Error = "boom"
			case 1:
				req.Canceled = true
			case 2:
				req.Requeue, req.Error = true, "blob plane degraded"
			case 3:
				missing = true
				req.Artifacts = map[string]string{"report": fleet.Digest([]byte(h.lease + " never uploaded"))}
			default:
				req.Converged = true
			}
			what = fmt.Sprintf("result %+v", req)
			res, err := c.Result(ctx, h.worker, req)
			if err != nil {
				fail("%v", err)
			}
			// What the coordinator did with a result: a retransmission was
			// acknowledged before the manager heard of it; anything else was
			// the manager's to gate, and a run it then finished had whatever
			// was left of its lease revoked.
			want := h.lease != "" && finished[h.run] == h.lease
			if !want {
				want = ref.Release(h.worker, h.run, h.lease)
				if want && terminal(h.run) {
					finished[h.run] = h.lease
					ref.Revoke(h.run)
				}
				want = want && !missing
			}
			if res.Accepted != want {
				fail("answered %+v, the reference accepted=%v", res, want)
			}
		case op < 16:
			if len(runs) == 0 {
				continue
			}
			run := runs[rng.Intn(len(runs))]
			what = "cancel " + run
			was := terminal(run)
			if _, err := s.Cancel(run); err != nil {
				fail("%v", err)
			}
			if !was && terminal(run) {
				ref.Revoke(run)
			}
		case op < 17:
			now := ref.LeasedRuns()
			if len(now) == 0 {
				continue
			}
			// A lease nobody has renewed for two hours, without the two hours.
			sort.Strings(now)
			run := now[rng.Intn(len(now))]
			what = "age " + run
			s.mu.Lock()
			s.runs[run].leaseExpires = s.runs[run].leaseExpires.Add(-2 * ttl)
			s.mu.Unlock()
			ref.leases[run].Expires = ref.leases[run].Expires.Add(-2 * ttl)
		case op < 19:
			// Half a TTL on, only an aged lease that no heartbeat renewed has
			// lapsed; two TTLs on, every lease has.
			at := time.Now().Add(ttl / 2)
			if rng.Intn(3) == 0 {
				at = time.Now().Add(2 * ttl)
			}
			what = fmt.Sprintf("expire at now+%s", time.Until(at).Round(time.Minute))
			s.mu.Lock()
			s.expireLeasesLocked(at)
			s.mu.Unlock()
			ref.expire(at)
		default:
			if step < steps-6 {
				continue // a shutdown ends the sequence but for a few late calls
			}
			what = "shutdown"
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err := s.Shutdown(sctx)
			cancel()
			if err != nil {
				fail("%v", err)
			}
			for _, run := range ref.LeasedRuns() {
				ref.Revoke(run)
			}
			c, stopped = s, true // the listener is gone; a late call is a method call
		}

		for _, name := range leaseSeries {
			got, _ := s.reg.Value(name)
			if want, _ := refReg.Value(name); got != want {
				fail("%s = %v, the reference counts %v", name, got, want)
			}
		}
		got := map[string]heldLease{}
		s.mu.Lock()
		for _, r := range s.runs {
			if r.LeaseID != "" {
				got[r.ID] = heldLease{r.Worker, r.ID, r.LeaseID}
			}
		}
		s.mu.Unlock()
		want := map[string]heldLease{}
		for run, l := range ref.leases {
			want[run] = heldLease{l.WorkerID, l.RunID, l.ID}
		}
		if !reflect.DeepEqual(got, want) {
			fail("the runs hold leases %v, the reference %v", got, want)
		}
	}
}
