package server

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/runstore"
)

// Persistence: the run-history store (CkptDir/runs) is the only durable
// record of run state. Every transition — queued, running, requeued, each
// terminal state — is appended there under s.mu (historyAppendLocked)
// before its event is published and, for a submission, before the 2xx is
// written; a submission whose append fails is refused. Artifact bytes
// never enter the log: a done run carries name → sha256 references into
// the content-addressed blob store (CkptDir/blobs), so N runs sharing a
// result cost one stored copy. A killed server therefore restores every
// acknowledged submission from the segments alone: done runs with their
// artifact references, queued and running runs back onto the queue.
//
// A record is a runstore.Meta and, only for a run whose job overrides the
// scenario's XML, a persistedRun document beside it: historyAppendLocked
// writes that, Server.storedRun is the one reader of it.

// persistedRun is a Run's whole durable form: what a record's document
// holds when it has one, and what storedRun builds from the meta when it
// has none. ArtifactRefs are blob digests, not bytes.
type persistedRun struct {
	ID           string            `json:"id"`
	Tenant       string            `json:"tenant"`
	Job          exp.Job           `json:"job"`
	State        RunState          `json:"state"`
	Cached       bool              `json:"cached,omitempty"`
	Err          string            `json:"error,omitempty"`
	Converged    bool              `json:"converged,omitempty"`
	SimEndNs     int64             `json:"sim_end_ns,omitempty"`
	Worker       string            `json:"worker,omitempty"`
	ArtifactRefs map[string]string `json:"artifact_refs,omitempty"`
	SubmittedAt  time.Time         `json:"submitted_at"`
	QueuedAt     time.Time         `json:"queued_at,omitempty"`
	ClaimedAt    time.Time         `json:"claimed_at,omitempty"`
	StartedAt    time.Time         `json:"started_at,omitempty"`
	FinishedAt   time.Time         `json:"finished_at,omitempty"`
}

func (r *Run) persisted() persistedRun {
	return persistedRun{
		ID:           r.ID,
		Tenant:       r.Tenant,
		Job:          r.Job,
		State:        r.State,
		Cached:       r.Cached,
		Err:          r.Err,
		Converged:    r.Converged,
		SimEndNs:     int64(r.SimEnd),
		Worker:       r.Worker,
		ArtifactRefs: r.Artifacts,
		SubmittedAt:  r.SubmittedAt,
		QueuedAt:     r.QueuedAt,
		ClaimedAt:    r.ClaimedAt,
		StartedAt:    r.StartedAt,
		FinishedAt:   r.FinishedAt,
	}
}

func (s *Server) applyPersisted(p persistedRun) *Run {
	r := &Run{
		ID:          p.ID,
		Tenant:      p.Tenant,
		Job:         p.Job,
		State:       p.State,
		Cached:      p.Cached,
		Err:         p.Err,
		Converged:   p.Converged,
		SimEnd:      time.Duration(p.SimEndNs),
		Worker:      p.Worker,
		Artifacts:   p.ArtifactRefs,
		SubmittedAt: p.SubmittedAt,
		QueuedAt:    p.QueuedAt,
		ClaimedAt:   p.ClaimedAt,
		StartedAt:   p.StartedAt,
		FinishedAt:  p.FinishedAt,
	}
	r.simNow.Store(p.SimEndNs)
	return r
}

// errJobDocumentLost fails a restored run whose record has a job document
// that can no longer be read: its meta cannot say what the XML override
// was, so requeueing from it would execute a different job under the ID.
var errJobDocumentLost = errors.New("server: the run's job document was unreadable at restart, so it cannot be re-executed; resubmit it")

// restore rebuilds the coordinator from the run-history store in one pass
// over its metas (recovery of whatever a crash left mid-rotation or
// mid-compaction is the store's own job). Three rules:
//
//   - A terminal run stays evicted; a done one whose artifacts resolve
//     seeds the result cache. A run recorded done whose references do not
//     resolve in the blob store — a cached run whose source was caught
//     mid-execution, or missing blob files — is demoted to queued instead
//     of serving artifact 404s forever: determinism makes the re-execution
//     (or a cache hit at claim time, once the source re-completes) produce
//     the identical bytes.
//   - Every non-terminal run becomes resident and goes back on the queue
//     (a run caught mid-execution restarts from scratch), bypassing the
//     capacity bound (queue.requeue): the bound is admission backpressure
//     for new submissions, and a server killed with queued+running >
//     QueueDepth must still be able to restart and drain. The one run that
//     does not go back is one whose job document is unreadable: it fails
//     with errJobDocumentLost.
//   - The next run ID comes from the store's durable ordinal high-water,
//     which outlives retention and compaction, so an ID is never reissued.
//
// With no dir (persistence off) the store opens memory-only — eviction,
// filtered listing and analytics behave identically — and holds nothing
// to restore.
func (s *Server) restore(dir string) error {
	runsDir := ""
	if dir != "" {
		runsDir = filepath.Join(dir, "runs")
		for _, name := range []string{"snapshot.ckpt", "journal.wal"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				s.logf("server: ignoring %s left by an older version; run state is read from %s only", name, runsDir)
				break
			}
		}
	}
	var err error
	s.history, err = runstore.Open(runstore.Options{
		Dir:          runsDir,
		SegmentBytes: s.cfg.RunstoreSegmentBytes,
		Metrics:      s.reg,
		Logger:       s.logger,
	})
	if err != nil {
		return err
	}
	s.nextID = int(s.history.MaxOrdinal()) + 1

	// The callback must not take s.mu or re-enter the store (lock order):
	// it seeds the cache from the metas in place and keeps only the IDs of
	// the runs that come back.
	var requeue []string
	s.history.EachMeta(func(m *runstore.Meta) bool {
		done := m.State == string(StateDone)
		servable := done && s.refsResolvable(m.Artifacts)
		if servable && !m.Cached && m.Key != "" {
			if _, have := s.cache[m.Key]; !have {
				s.cache[m.Key] = cacheEntry{
					RunID: m.ID, Converged: m.Converged,
					SimEnd: time.Duration(m.SimEndNs), Artifacts: m.Artifacts,
				}
			}
		}
		if !m.Terminal || (done && !servable) {
			requeue = append(requeue, m.ID)
		}
		return true
	})
	var queued []string // oldest first
	for _, id := range requeue {
		p, intact, ok := s.evictedRun(id)
		if !ok {
			continue
		}
		r := s.applyPersisted(p)
		s.admitLocked(r)
		if !intact {
			s.finishLocked(r, StateFailed, "document_lost", errJobDocumentLost.Error())
			continue
		}
		s.resetToQueuedLocked(r, "restore")
		queued = append(queued, r.ID)
		s.met.requeued.Inc()
	}
	// Each goes in at the front, so the newest goes first and the oldest
	// ends up at the head: the next process claims in admission order too.
	for i := len(queued) - 1; i >= 0; i-- {
		s.queue.requeue(queued[i])
	}

	// Compact the blob store to what the restored state references.
	s.blobs.GC(s.history.Digests())
	return nil
}

// refsResolvable reports whether a done run's artifact references all
// resolve in the blob store.
func (s *Server) refsResolvable(refs map[string]string) bool {
	if len(refs) == 0 {
		return false
	}
	for _, digest := range refs {
		if !s.blobs.Has(digest) {
			return false
		}
	}
	return true
}
