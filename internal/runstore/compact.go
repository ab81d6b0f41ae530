package runstore

import (
	"bytes"
	"os"
	"sort"
	"time"

	"dyflow/internal/ckpt"
)

// Compaction rewrites the sealed segments (everything but the active
// one) into a single new segment holding only live records — each run's
// latest, minus tombstoned runs whose tombstone's every predecessor is
// in the inputs, which vanish entirely. The swap is crash-safe: the
// output is written to a .tmp, fsynced, renamed over the lowest input
// index, and only then are the remaining inputs deleted. A crash at any
// point leaves either the untouched inputs (tmp discarded on Open) or
// the renamed output plus leftover inputs whose records duplicate it —
// and recovery's latest-wins-by-sequence fold (with equal-sequence
// dedup) reads both states back to exactly the committed history.

// needCompactLocked reports whether the sealed dead-record count
// crosses the auto-compaction thresholds.
func (s *Store) needCompactLocked() bool {
	if s.dir == "" || s.compacting || s.closed || len(s.segs) < 2 {
		return false
	}
	var records, live int64
	for _, seg := range s.segs[:len(s.segs)-1] {
		records += seg.records
		live += seg.live
	}
	dead := records - live
	min := int64(s.opt.CompactMinRecords)
	if min <= 0 {
		min = DefaultCompactMinRecords
	}
	return dead >= min && float64(dead) > compactFraction*float64(records)
}

// Compact runs one compaction synchronously (no-op when there is
// nothing sealed to compact or one is already running).
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.dir == "" || s.compacting || s.closed || len(s.segs) < 2 {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	s.cwg.Add(1)
	s.mu.Unlock()
	return s.compactOwned()
}

// compactOwned performs the compaction; the caller has already set
// s.compacting and incremented s.cwg.
func (s *Store) compactOwned() error {
	defer s.cwg.Done()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()

	// Snapshot the sealed inputs. New appends only touch the active
	// segment, so the input files are immutable for the duration.
	s.mu.Lock()
	if s.closed || len(s.segs) < 2 {
		s.mu.Unlock()
		return nil
	}
	inputs := append([]*segment(nil), s.segs[:len(s.segs)-1]...)
	s.mu.Unlock()

	// Read every input frame (the file bytes, not re-marshaled: frames
	// are copied verbatim so checksums carry over).
	type cand struct {
		fr   frame
		data []byte
	}
	var cands []cand
	var inputRecords int64
	for _, seg := range inputs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		frames, _, _, _ := scanSegment(data)
		inputRecords += int64(len(frames))
		for _, fr := range frames {
			cands = append(cands, cand{fr: fr, data: data[fr.off : fr.off+fr.len]})
		}
	}

	// Decide keeps under the read lock: a record survives iff it is
	// still its run's latest; a tombstone survives only while its run
	// could still have records outside the inputs (it cannot — inputs
	// are all sealed segments and tombstones are final — so registered
	// tombstones drop here, completing the delete), or while it is the
	// frame carrying the run-ordinal high-water (Store.maxOrdSeq).
	s.mu.RLock()
	seen := make(map[string]bool)
	var kept []cand
	droppedTombs := make(map[string]uint64)
	for _, c := range cands {
		id := c.fr.meta.ID
		if c.fr.meta.Tombstone {
			if tseq, ok := s.tombs[id]; ok && tseq == c.fr.seq && s.runs[id] == nil && tseq != s.maxOrdSeq {
				droppedTombs[id] = tseq
			} else if !seen[id+"\x00tomb"] {
				seen[id+"\x00tomb"] = true
				kept = append(kept, c)
			}
			continue
		}
		if rs := s.runs[id]; rs != nil && rs.seq == c.fr.seq && !seen[id] {
			seen[id] = true
			kept = append(kept, c)
		}
	}
	s.mu.RUnlock()

	// Write the output to a tmp, fsync, and rename over the lowest
	// input index.
	outPath := inputs[0].path
	tmp := outPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ckpt.WriteHeader(&buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	for _, c := range kept {
		buf.Write(c.data)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, outPath); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}

	// Swap the in-memory view: one compacted segment replaces the
	// inputs. Records superseded between the keep decision and here are
	// simply dead bytes in the output (their runState moved to the
	// active segment and is skipped by the seq check).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		f.Close()
		return nil
	}
	ns := &segment{
		index:   inputs[0].index,
		path:    outPath,
		f:       f,
		size:    int64(buf.Len()),
		records: int64(len(kept)),
	}
	for _, c := range kept {
		if rs := s.runs[c.fr.meta.ID]; rs != nil && rs.seq == c.fr.seq {
			rs.seg = ns
			ns.live++
		}
	}
	rest := s.segs[len(inputs):]
	s.segs = append([]*segment{ns}, rest...)
	dropped := inputRecords - int64(len(kept))
	s.total -= dropped
	for id := range droppedTombs {
		if tseq, ok := s.tombs[id]; ok && tseq == droppedTombs[id] {
			delete(s.tombs, id)
		}
	}
	s.met.compactions.Inc()
	s.met.dropped.Add(dropped)
	s.updateGaugesLocked()
	old := make([]*segment, len(inputs))
	copy(old, inputs)
	s.mu.Unlock()

	// The rename replaced inputs[0]'s path; its old handle and the
	// other input files are no longer referenced by any index entry.
	for i, seg := range old {
		seg.f.Close()
		if i > 0 {
			os.Remove(seg.path)
		}
	}
	return nil
}

// Retention is a per-tenant deletion policy over terminal runs.
type Retention struct {
	// MaxAge deletes terminal runs whose FinishedAt is older (0 = none).
	MaxAge time.Duration
	// MaxBytes bounds one tenant's total artifact bytes: oldest terminal
	// runs are deleted until the tenant fits (0 = unlimited).
	MaxBytes int64
}

// SweepRetention applies ret at time now, tombstoning the victims and
// returning their metas (so the caller can release cache entries and
// GC newly-unreferenced blobs). Only terminal runs are ever deleted.
func (s *Store) SweepRetention(ret Retention, now time.Time) []Meta {
	if ret.MaxAge <= 0 && ret.MaxBytes <= 0 {
		return nil
	}
	s.mu.Lock()
	victims := make(map[*runState]bool)
	cutNs := int64(0)
	if ret.MaxAge > 0 {
		cutNs = now.Add(-ret.MaxAge).UnixNano()
	}
	for _, list := range s.byTenant {
		var term []*runState
		for _, rs := range list {
			if !rs.meta.Terminal {
				continue
			}
			term = append(term, rs)
			if cutNs != 0 && rs.meta.FinishedAtNs > 0 && rs.meta.FinishedAtNs < cutNs {
				victims[rs] = true
			}
		}
		if ret.MaxBytes > 0 {
			// Newest-first: keep runs while the tenant fits its budget,
			// delete the older overflow.
			sortByFinishedDesc(term)
			var acc int64
			for _, rs := range term {
				if victims[rs] {
					continue
				}
				acc += rs.meta.ArtifactBytes
				if acc > ret.MaxBytes {
					victims[rs] = true
				}
			}
		}
	}
	out := make([]Meta, 0, len(victims))
	for rs := range victims {
		out = append(out, rs.meta)
		tomb := Meta{ID: rs.meta.ID, Tenant: rs.meta.Tenant, Tombstone: true}
		if err := s.appendLocked(tomb, nil); err != nil {
			s.logf("runstore: retention tombstone %s: %v", rs.meta.ID, err)
			out = out[:len(out)-1]
			continue
		}
		s.met.retention.Inc()
	}
	compact := len(out) > 0 && s.needCompactLocked()
	if compact {
		s.compacting = true
		s.cwg.Add(1)
	}
	s.updateGaugesLocked()
	s.mu.Unlock()
	if compact {
		go s.compactOwned()
	}
	return out
}

// sortByFinishedDesc orders terminal runs newest-finished first.
func sortByFinishedDesc(list []*runState) {
	sort.Slice(list, func(i, j int) bool {
		return list[i].meta.FinishedAtNs > list[j].meta.FinishedAtNs
	})
}
