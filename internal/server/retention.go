package server

import (
	"time"

	"dyflow/internal/runstore"
)

// SweepRetention applies the configured retention policy once: terminal
// runs beyond the per-tenant age/byte budgets are tombstoned in the
// history store, their cache entries and event rings released, and
// artifact blobs no longer referenced by any live record swept from the
// blob store. Returns the number of runs deleted.
//
// A blob uploaded by a worker between the keep-set read and its result
// POST can be swept in the window; the result handler's missing-blob
// check requeues that run, so the race costs a re-execution, never a
// dangling "done" run.
func (s *Server) SweepRetention() int {
	if s.history == nil {
		return 0
	}
	victims := s.history.SweepRetention(runstore.Retention{
		MaxAge:   s.cfg.RetentionMaxAge,
		MaxBytes: s.cfg.RetentionMaxBytes,
	}, time.Now())
	if len(victims) == 0 {
		return 0
	}
	keep := map[string]bool{}
	s.mu.Lock()
	for _, m := range victims {
		if ce, ok := s.cache[m.Key]; ok && ce.RunID == m.ID {
			delete(s.cache, m.Key)
		}
		s.events.Drop(m.ID)
	}
	for _, r := range s.runs {
		for _, digest := range r.Artifacts {
			keep[digest] = true
		}
	}
	s.mu.Unlock()
	for digest := range s.history.Digests() {
		keep[digest] = true
	}
	if removed := s.blobs.GC(keep); removed > 0 {
		s.met.gcBlobs.Add(int64(removed))
	}
	return len(victims)
}
