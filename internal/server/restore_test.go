package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
	"dyflow/internal/server/fleet"
)

// TestRestoreOverCapacityQueue is the restore-backpressure regression: a
// server killed with queued+running > QueueDepth must restart. The queue's
// capacity bound is admission backpressure for new submissions; the
// restore requeue used the same bounded push and failed with errQueueFull,
// leaving the service unable to come back up under exactly the load that
// likely killed it.
func TestRestoreOverCapacityQueue(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: -1, QueueDepth: 2, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 2)
	release := make(chan struct{})
	if err := s1.startLocal(fleet.WorkerOptions{Slots: 2, OnClaim: func(id string) {
		started <- id
		<-release
	}}); err != nil {
		t.Fatal(err)
	}

	// 2 running (held by the hook) + 2 queued = 4 unfinished > depth 2. The
	// first pair must be in the workers' hands before the second pair can
	// clear admission.
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := s1.Submit(fmt.Sprintf("t%d", i), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never picked up runs")
		}
	}
	for i := 2; i < 4; i++ {
		st, err := s1.Submit(fmt.Sprintf("t%d", i), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if depth := s1.QueueDepth(); depth != 2 {
		t.Fatalf("queue depth %d with 2 runs held running", depth)
	}
	// Kill: Close flags the worker killed before it waits for the slots, so
	// the runs released after that are abandoned instead of executed.
	closed := make(chan struct{})
	go func() {
		s1.Close()
		close(closed)
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	<-closed

	s2, err := New(Config{Workers: 2, QueueDepth: 2, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatalf("restart with unfinished runs over QueueDepth: %v", err)
	}
	defer s2.Close()
	if got := len(s2.Runs()); got != 4 {
		t.Fatalf("restored %d of 4 runs", got)
	}
	for _, id := range ids {
		if st := await(t, s2, id); st.State != StateDone {
			t.Fatalf("run %s ended %s after over-capacity restart: %s", id, st.State, st.Error)
		}
	}
}

// TestRestoreOrphanedCachedRun is the orphaned-cache regression: a run
// recorded as a cached completion while its cache-source run was caught
// mid-execution by the crash restored as done with no artifacts — every
// artifact GET a permanent 404. Such a run must come back as queued (its
// job is deterministic, so re-execution or a later cache hit reproduces
// the identical bytes), never as done-but-unservable.
func TestRestoreOrphanedCachedRun(t *testing.T) {
	dir := t.TempDir()
	job, err := quick(7).Normalized()
	if err != nil {
		t.Fatal(err)
	}

	// Handcraft the crash log the bug needs: run A acknowledged and caught
	// mid-execution (queued record only, no terminal record), run B
	// recorded as a cached done run with no artifact references of its
	// own — it pointed at A's in-memory artifacts, which died with the
	// process.
	store, err := runstore.Open(runstore.Options{Dir: filepath.Join(dir, "runs")})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	put := func(p persistedRun) {
		t.Helper()
		doc, err := json.Marshal(p)
		must(err)
		must(store.Append(runstore.Meta{
			ID: p.ID, Tenant: p.Tenant, Scenario: p.Job.Scenario, Key: p.Job.Key(),
			State: string(p.State), Terminal: p.State.Terminal(), Cached: p.Cached, Converged: p.Converged,
			SubmittedAtNs: unixNs(p.SubmittedAt), FinishedAtNs: unixNs(p.FinishedAt),
		}, doc))
	}
	put(persistedRun{
		ID: "run-000000", Tenant: "alice", Job: job, State: StateQueued, SubmittedAt: now,
	})
	put(persistedRun{
		ID: "run-000001", Tenant: "bob", Job: job, State: StateDone, Cached: true,
		Converged: true, SubmittedAt: now, FinishedAt: now,
	})
	must(store.Close())

	s, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The moment restore finishes, no run may sit done with unservable
	// artifacts.
	for _, st := range s.Runs() {
		if st.State == StateDone {
			if _, err := s.Artifact(st.ID, exp.ArtifactReport); err != nil {
				t.Fatalf("restored run %s is done but its artifacts 404: %v", st.ID, err)
			}
		}
	}

	for _, id := range []string{"run-000000", "run-000001"} {
		st := await(t, s, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
		if blob, err := s.Artifact(id, exp.ArtifactReport); err != nil || len(blob) == 0 {
			t.Fatalf("run %s report after recovery: %v (%d bytes)", id, err, len(blob))
		}
	}
	a, _ := s.Artifact("run-000000", exp.ArtifactReport)
	b, _ := s.Artifact("run-000001", exp.ArtifactReport)
	if !bytes.Equal(a, b) {
		t.Fatal("recovered runs of the identical job diverge")
	}
}

// TestRestoreMissingBlobsRequeues covers the other orphan shape: done runs
// whose recorded artifact references point at blobs that did not survive
// the crash. They restore as queued and re-execute rather than serving
// artifact 404s.
func TestRestoreMissingBlobsRequeues(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Submit("alice", quick(3))
	if err != nil {
		t.Fatal(err)
	}
	first = await(t, s1, first.ID)
	second, err := s1.Submit("bob", quick(3)) // cache hit, shares first's blobs
	if err != nil || !second.Cached {
		t.Fatalf("resubmission not cached: %v %+v", err, second)
	}
	s1.Close()
	if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{first.ID, second.ID} {
		st := await(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("run %s ended %s after blob loss: %s", id, st.State, st.Error)
		}
		if blob, err := s2.Artifact(id, exp.ArtifactReport); err != nil || len(blob) == 0 {
			t.Fatalf("run %s report after blob loss: %v (%d bytes)", id, err, len(blob))
		}
	}
}

// syncBuf is a logger sink safe to read while worker goroutines log.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRestoreAppendFailuresObservable is the durability-observability
// regression on the single log: a failed history append must be counted
// (dyflow_runstore_append_errors_total) and reach the configured logger.
// On a terminal transition the run still finishes and stays resident and
// servable; on either Submit path the submission is refused — never
// acknowledged without durability.
func TestRestoreAppendFailuresObservable(t *testing.T) {
	sink := &syncBuf{}
	s, err := New(Config{Workers: -1, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const series = "dyflow_runstore_append_errors_total"

	// Terminal-path failure: the store dies while the run executes (its
	// queued and running records are already in), so the done append fails.
	if err := s.startLocal(fleet.WorkerOptions{OnClaim: func(string) { s.History().Close() }}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit("alice", quick(2))
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run ended %s with failing done-append", st.State)
	}
	s.mu.Lock()
	_, resident := s.runs[st.ID]
	s.mu.Unlock()
	if !resident {
		t.Fatal("run evicted although its terminal record never reached the store")
	}
	if blob, err := s.Artifact(st.ID, exp.ArtifactReport); err != nil || len(blob) == 0 {
		t.Fatalf("resident done run not servable: %v (%d bytes)", err, len(blob))
	}
	if v := counter(t, s, series); v != 1 {
		t.Fatalf("%s = %v after failed done append", series, v)
	}

	// Submit-path failures, queue path then cache path: refused, counted,
	// and the refused run's ID is not consumed.
	for i, job := range []exp.Job{quick(1), quick(2)} {
		if got, err := s.Submit("alice", job); err == nil {
			t.Fatalf("submit acknowledged as %s despite append failure", got.ID)
		}
		if v := counter(t, s, series); v != float64(2+i) {
			t.Fatalf("%s = %v after refused submit %d", series, v, i)
		}
	}
	if n := len(s.Runs()); n != 1 {
		t.Fatalf("%d runs listed after two refused submissions, want 1", n)
	}
	if s.QueueDepth() != 0 {
		t.Fatal("refused submission left on the queue")
	}
	if text := sink.String(); !strings.Contains(text, "history append "+st.ID+" (done)") {
		t.Fatalf("append failures never reached the logger:\n%s", text)
	}
	if text := metricsText(t, s); !strings.Contains(text, series+" 3") {
		t.Fatalf("%s missing from the Prometheus exposition", series)
	}
}

// TestRestoreRunIDsNeverReuseAfterRetentionCompaction: once retention has
// deleted every run and compaction has dropped their records, the only
// trace of the IDs already issued is the store's ordinal high-water — a
// restarted coordinator must continue after it, not start again at
// run-000000.
func TestRestoreRunIDsNeverReuseAfterRetentionCompaction(t *testing.T) {
	cfg := Config{
		Workers: 1, TenantQuota: -1, CkptDir: t.TempDir(),
		RunstoreSegmentBytes: 512, // a record per segment, so compaction has sealed input
		RetentionMaxAge:      time.Nanosecond, RetentionInterval: time.Hour,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := s1.Submit("alice", quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st = await(t, s1, st.ID); st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	if n := s1.SweepRetention(); n != 3 {
		t.Fatalf("retention deleted %d of 3 runs", n)
	}
	if err := s1.History().Compact(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := len(s2.Runs()); n != 0 {
		t.Fatalf("%d runs listed after retention deleted all of them", n)
	}
	st, err := s2.Submit("alice", quick(9))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "run-000003" {
		t.Fatalf("first submission after restart is %s, want run-000003 (IDs must never reuse)", st.ID)
	}
}

// TestRestoreIgnoresLeftoverSnapshotAndWAL: the segments are the only
// thing a durable start reads or writes. Files an older version's
// snapshot + WAL plane left in CkptDir are mentioned once in the log and
// otherwise untouched — garbage in them (which that plane's restore
// refused to start on) is never parsed.
func TestRestoreIgnoresLeftoverSnapshotAndWAL(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.ckpt", "journal.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sink := &syncBuf{}
	s, err := New(Config{Workers: 1, CkptDir: dir, Logger: log.New(sink, "", 0)})
	if err != nil {
		t.Fatalf("start beside leftover files: %v", err)
	}
	st, err := s.Submit("alice", quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if st = await(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run ended %s: %s", st.State, st.Error)
	}
	s.Close()

	if n := strings.Count(sink.String(), "left by an older version"); n != 1 {
		t.Fatalf("leftover files logged %d times, want once:\n%s", n, sink.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"blobs", "journal.wal", "runs", "snapshot.ckpt"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("CkptDir holds %v, want %v", names, want)
	}
	for _, name := range []string{"snapshot.ckpt", "journal.wal"} {
		if data, _ := os.ReadFile(filepath.Join(dir, name)); string(data) != "not a checkpoint" {
			t.Fatalf("%s was rewritten: %q", name, data)
		}
	}
}

// TestRestoreTornTailEveryByte is the coordinator-level companion of
// runstore/crash_test.go: kill -9 at every byte boundary of the single
// log's tail. Each truncation must restart cleanly into exactly the state
// its whole records describe, with done runs servable and unfinished ones
// runnable.
func TestRestoreTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "runs", "seg-00000001.log")
	segSize := func() int {
		t.Helper()
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}

	// stages[i] is the listing a restart must produce once the i-th
	// listing-changing record has fully landed (a running record changes
	// nothing: the run restores queued either way).
	model := map[string]RunState{}
	var stages []map[string]RunState
	stage := func(id string, st RunState) {
		model[id] = st
		snap := make(map[string]RunState, len(model))
		for k, v := range model {
			snap[k] = v
		}
		stages = append(stages, snap)
	}
	submit := func(s *Server, seed int64) string {
		t.Helper()
		st, err := s.Submit("alice", quick(seed))
		if err != nil {
			t.Fatal(err)
		}
		stage(st.ID, StateQueued)
		return st.ID
	}
	runToDone := func(s *Server, seed int64) {
		t.Helper()
		id := submit(s, seed)
		if st := await(t, s, id); st.State != StateDone {
			t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
		}
		stage(id, StateDone)
	}

	// Two runs before the tail under test, then: queued → running → done,
	// and (on a worker-less successor, so they stay put) a still-queued
	// run and a canceled one.
	s1, err := New(Config{Workers: 1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runToDone(s1, 1)
	runToDone(s1, 2)
	tailStart, firstStage := segSize(), len(stages)-1
	runToDone(s1, 3)
	s1.Close()
	s1, err = New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	submit(s1, 4)
	victim := submit(s1, 5)
	if _, err := s1.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	stage(victim, StateCanceled)
	s1.Close()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// restart runs server.New on what a kill -9 at byte cut of the log
	// leaves in crash: the truncated segment plus, on first use of crash,
	// the blob tree (hard-linked: restore's blob GC must not reach into the
	// original).
	restart := func(crash string, cut, workers int) *Server {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(crash, "runs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, "runs", filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(crash, "blobs")); err != nil {
			err := filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				rel, _ := filepath.Rel(dir, path)
				if d.IsDir() {
					return os.MkdirAll(filepath.Join(crash, rel), 0o755)
				}
				return os.Link(path, filepath.Join(crash, rel))
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(Config{Workers: workers, TenantQuota: -1, CkptDir: crash, Logger: log.New(&syncBuf{}, "", 0)})
		if err != nil {
			t.Fatalf("cut %d: restart failed: %v", cut, err)
		}
		return s
	}
	// check asserts the restored listing, artifact service for done runs
	// and ID continuity, returning which stage the listing is.
	check := func(cut int, s *Server, at int) int {
		t.Helper()
		s.mu.Lock()
		next := s.nextID
		s.mu.Unlock()
		got := map[string]RunState{}
		for _, st := range s.Runs() {
			got[st.ID] = st.State
			if st.State == StateDone {
				if blob, err := s.Artifact(st.ID, exp.ArtifactReport); err != nil || len(blob) == 0 {
					t.Fatalf("cut %d: done run %s does not serve its report: %v", cut, st.ID, err)
				}
			}
			var n int
			if fmt.Sscanf(st.ID, "run-%d", &n); next <= n {
				t.Fatalf("cut %d: nextID %d not above listed %s", cut, next, st.ID)
			}
		}
		for at > firstStage && !reflect.DeepEqual(got, stages[at]) {
			at-- // a shorter log may only step back to an earlier stage
		}
		if !reflect.DeepEqual(got, stages[at]) {
			t.Fatalf("cut %d: restored %v, which is no stage the log passed through", cut, got)
		}
		return at
	}

	// Longest cut first, all in one directory: the blobs a restore sweeps
	// there as unreferenced are never needed again by a shorter log.
	scratch := t.TempDir()
	at, drained := len(stages)-1, -1
	for cut := len(data); cut >= tailStart; cut-- {
		s := restart(scratch, cut, -1)
		was := at
		at = check(cut, s, at)
		s.Close()
		if was-at > 1 {
			t.Fatalf("cut %d: one byte fewer skipped from stage %d to %d", cut, was, at)
		}
		if at == drained {
			continue
		}
		// First cut restoring this stage: attach a worker and finish it.
		drained = at
		s = restart(t.TempDir(), cut, 1)
		for id, state := range stages[at] {
			want := StateDone
			if state == StateCanceled {
				want = StateCanceled
			}
			if st := await(t, s, id); st.State != want {
				t.Fatalf("cut %d: run %s restored %s, ended %s: %s", cut, id, state, st.State, st.Error)
			}
			if _, err := s.Artifact(id, exp.ArtifactReport); want == StateDone && err != nil {
				t.Fatalf("cut %d: run %s finished after restart without a report: %v", cut, id, err)
			}
		}
		s.Close()
	}
	if at != firstStage {
		t.Fatalf("truncating to the tail's start restored stage %d, want %d", at, firstStage)
	}
}

// TestRestoreKeepsAdmissionOrder: the runs a killed coordinator left queued
// are claimed from the next process in the order they were admitted. Each
// re-enters at the front of the queue, and requeueing them oldest first
// handed them out newest first.
func TestRestoreKeepsAdmissionOrder(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s1, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 5; i++ {
		st, err := s1.Submit(fmt.Sprint("tenant-", i%2), quick(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	s1.Close()

	s2, err := New(Config{Workers: -1, TenantQuota: -1, CkptDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	reg, _ := s2.Register(ctx, fleet.RegisterRequest{Slots: 1})
	var got []string
	for range want {
		claim, ok, err := s2.Claim(ctx, reg.WorkerID, 10*time.Second)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", err, ok)
		}
		got = append(got, claim.RunID)
		failRun(t, s2, reg.WorkerID, claim)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored runs were claimed %v, want admission order %v", got, want)
	}
}
