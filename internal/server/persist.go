package server

import (
	"os"
	"path/filepath"

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
// A record is the run's runstore.Meta, its job's XML override included:
// the Meta a resident Run embeds. Records an older coordinator wrote with a
// document beside the meta reach the server already completed from it: the
// store decodes the document when it folds the frame.

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
//     QueueDepth must still be able to restart and drain.
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
	// it seeds the cache from the metas in place and builds the runs that
	// come back — each its record, since the requeue resets the rest —
	// which are admitted after it.
	var requeue []*Run
	s.history.EachMeta(func(m *runstore.Meta) bool {
		done := m.State == string(StateDone)
		servable := done && s.refsResolvable(m.Artifacts)
		if servable && !m.Cached && m.Key != "" {
			if _, have := s.cache[m.Key]; !have {
				s.cache[m.Key] = m.ID
			}
		}
		if !m.Terminal || (done && !servable) {
			requeue = append(requeue, &Run{Meta: *m})
		}
		return true
	})
	for _, r := range requeue {
		s.admitLocked(r)
		s.resetToQueuedLocked(r, "restore")
		s.met.requeued.Inc()
	}
	// Each goes in at the front, so the newest goes first and the oldest
	// ends up at the head: the next process claims in admission order too.
	for i := len(requeue) - 1; i >= 0; i-- {
		s.queue.requeue(requeue[i].ID)
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
