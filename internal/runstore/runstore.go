// Package runstore is the campaign service's durable run-history store:
// a segmented, compacting, indexed evolution of the flat ckpt WAL
// (ROADMAP's "Queryable run history" item). Every run-state transition
// is appended as one checksummed JSON record (ckpt framing, so torn
// tails are detected and dropped, never replayed); records carry a
// global monotonic sequence number, and the latest record per run wins.
// The log is split into size-rotated segments — one active, the rest
// sealed and immutable — and a background compactor rewrites sealed
// segments keeping only live (latest-per-run) records, with crash-safe
// tmp+fsync+rename swaps. Because recovery is latest-wins by sequence
// number and duplicate sequences are skipped, every compaction crash
// window (tmp leftover, renamed-but-not-deleted inputs, torn active
// tail) recovers to the pre-crash committed state.
//
// A record is a Meta, and the index holds every run's latest one, so the
// in-memory secondary indexes (tenant, scenario, submission-time order)
// serve lookups and filtered, cursor-paginated queries without touching
// disk. A frame an older coordinator wrote may carry a document beside its
// meta; that is decoded once, when the frame is folded into the index (on
// Append and on Open alike), and nothing reads a frame again except
// compaction's verbatim copy. With no directory the store is memory-only:
// same API, no files, no compaction.
package runstore

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/obs"
)

// Defaults for Options' zero values.
const (
	DefaultSegmentBytes      = 4 << 20
	DefaultCompactMinRecords = 1024
)

// compactFraction is the dead/total fraction of sealed records past which
// auto-compaction triggers.
const compactFraction = 0.5

// recordKind tags every framed record in a segment file.
const recordKind = "run"

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("runstore: store is closed")

// Options configures a store.
type Options struct {
	// Dir is the segment directory. "" keeps the store memory-only
	// (same API, no files, no compaction) — tests and persistence-off
	// servers use this.
	Dir string
	// SegmentBytes is the active segment's rotation threshold
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// CompactMinRecords is the minimum count of dead sealed records
	// before auto-compaction triggers (0 = DefaultCompactMinRecords).
	CompactMinRecords int
	// Metrics receives the dyflow_runstore_* families (nil = private).
	Metrics *obs.Registry
	// Logger receives recovery and compaction notes (nil = stderr).
	Logger *log.Logger
}

// Meta is a run's latest record, resident in the index: everything the
// secondary indexes, a listing, a status, the analytics fold and a restart
// need.
type Meta struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Scenario string `json:"scenario,omitempty"`
	Machine  string `json:"machine,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// XML is the job's orchestration-document override ("" = none).
	XML string `json:"xml,omitempty"`
	// Key is the job's deterministic cache key (result-cache rebuilds).
	Key       string `json:"key,omitempty"`
	State     string `json:"state"`
	Terminal  bool   `json:"terminal,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Converged bool   `json:"converged,omitempty"`
	// Tombstone marks a retention deletion: the run is dropped from all
	// indexes and its older records become compactable garbage.
	Tombstone bool `json:"tombstone,omitempty"`
	// Error is a failed run's message; Worker the fleet worker that ran it.
	Error  string `json:"error,omitempty"`
	Worker string `json:"worker,omitempty"`

	SubmittedAtNs int64 `json:"submitted_at_ns,omitempty"`
	QueuedAtNs    int64 `json:"queued_at_ns,omitempty"`
	ClaimedAtNs   int64 `json:"claimed_at_ns,omitempty"`
	StartedAtNs   int64 `json:"started_at_ns,omitempty"`
	FinishedAtNs  int64 `json:"finished_at_ns,omitempty"`
	SimEndNs      int64 `json:"sim_end_ns,omitempty"`

	// Artifacts maps artifact names to blob digests; ArtifactBytes is
	// their total stored size (retention's per-tenant byte accounting).
	// The store keeps the map it is handed and shares it between index
	// entries, so neither side may write to it after Append.
	Artifacts     map[string]string `json:"artifacts,omitempty"`
	ArtifactBytes int64             `json:"artifact_bytes,omitempty"`
}

// entry is the JSON payload inside each framed record.
type entry struct {
	Seq  uint64          `json:"seq"`
	Meta Meta            `json:"meta"`
	Doc  json.RawMessage `json:"doc,omitempty"`
}

// docFields is what a record's document says that its meta may not. Until
// the meta held the whole run, the coordinator wrote the run's full record
// as a document beside it: on every record at first, then only for a run
// with an XML override. Only these fields are read.
type docFields struct {
	ID  string `json:"id"`
	Job struct {
		Machine string `json:"machine"`
		Seed    int64  `json:"seed"`
		XML     string `json:"xml"`
	} `json:"job"`
	Error  string `json:"error"`
	Worker string `json:"worker"`
}

// withDoc completes m from the document beside it, if there is one. A
// document that does not decode, or describes another run, is an error: a
// frame carrying one is dead bytes.
func withDoc(m Meta, doc []byte) (Meta, error) {
	if len(doc) == 0 {
		return m, nil
	}
	var d docFields
	if err := json.Unmarshal(doc, &d); err != nil {
		return m, fmt.Errorf("runstore: document of %s: %w", m.ID, err)
	}
	if d.ID != m.ID {
		return m, fmt.Errorf("runstore: document of %s describes run %q", m.ID, d.ID)
	}
	m.Machine, m.Seed, m.XML, m.Error, m.Worker = d.Job.Machine, d.Job.Seed, d.Job.XML, d.Error, d.Worker
	return m, nil
}

// segment is one log file. The last segment is active (appended to);
// all others are sealed and immutable until compaction replaces them.
type segment struct {
	index   int
	path    string
	f       *os.File
	size    int64
	records int64
	live    int64
}

// runState is a run's in-memory index entry: its latest record and the
// segment holding that record's frame (the segments' live counts).
type runState struct {
	meta Meta
	seq  uint64
	seg  *segment // nil in memory-only mode
}

// Store is the run-history store. All methods are safe for concurrent
// use.
type Store struct {
	opt  Options
	dir  string // "" = memory-only
	logf func(string, ...any)

	mu         sync.RWMutex
	segs       []*segment // segs[len-1] is active
	runs       map[string]*runState
	tombs      map[string]uint64 // run ID → tombstone seq (not yet compacted away)
	order      []*runState       // by (SubmittedAtNs, ID)
	byTenant   map[string][]*runState
	byScenario map[string][]*runState
	nextSeq    uint64
	total      int64 // records across all segments (incl. tombstones)
	// maxOrd is the greatest run ordinal (the decimal number an ID ends
	// in) any record ever carried, tombstones included; maxOrdSeq is the
	// latest record carrying it. Compaction never drops that frame, so the
	// high-water outlives retention deleting every run and a restarted
	// coordinator never reissues an ID. -1 = no record yet.
	maxOrd     int64
	maxOrdSeq  uint64
	compacting bool
	closed     bool

	cwg sync.WaitGroup // in-flight background compactions

	met storeMetrics
}

type storeMetrics struct {
	segments     *obs.Gauge
	diskBytes    *obs.Gauge
	liveRecords  *obs.Gauge
	deadRecords  *obs.Gauge
	appends      *obs.Counter
	appendErrs   *obs.Counter
	rotations    *obs.Counter
	compactions  *obs.Counter
	dropped      *obs.Counter
	retention    *obs.Counter
	querySeconds *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return storeMetrics{
		segments: reg.Gauge("dyflow_runstore_segments",
			"Run-history log segments on disk (the last is active).").With(),
		diskBytes: reg.Gauge("dyflow_runstore_disk_bytes",
			"Total bytes across run-history segments.").With(),
		liveRecords: reg.Gauge("dyflow_runstore_records_live",
			"Runs whose latest record is retrievable (one live record each).").With(),
		deadRecords: reg.Gauge("dyflow_runstore_records_dead",
			"Superseded or tombstoned records awaiting compaction.").With(),
		appends: reg.Counter("dyflow_runstore_appends_total",
			"Run records appended to the history log.").With(),
		appendErrs: reg.Counter("dyflow_runstore_append_errors_total",
			"Run-record appends that failed; the transition is not in the history store.").With(),
		rotations: reg.Counter("dyflow_runstore_rotations_total",
			"Active-segment rotations (size threshold reached).").With(),
		compactions: reg.Counter("dyflow_runstore_compactions_total",
			"Sealed-segment compactions completed.").With(),
		dropped: reg.Counter("dyflow_runstore_compaction_dropped_total",
			"Dead records dropped by compaction.").With(),
		retention: reg.Counter("dyflow_runstore_retention_deleted_total",
			"Runs tombstoned by the retention policy.").With(),
		querySeconds: reg.Histogram("dyflow_runstore_query_seconds",
			"Indexed run-history query latency.", nil).With(),
	}
}

// Open opens (creating if needed) a store rooted at opt.Dir, recovering
// from whatever a crash left behind: leftover .tmp files are removed,
// torn segment tails truncated to the last good record, and duplicate
// records (an interrupted compaction's renamed-but-not-deleted inputs)
// deduplicated latest-wins by sequence number.
func Open(opt Options) (*Store, error) {
	logger := opt.Logger
	if logger == nil {
		logger = log.New(os.Stderr, "runstore: ", log.LstdFlags)
	}
	s := &Store{
		opt:        opt,
		dir:        opt.Dir,
		logf:       logger.Printf,
		runs:       map[string]*runState{},
		tombs:      map[string]uint64{},
		byTenant:   map[string][]*runState{},
		byScenario: map[string][]*runState{},
		nextSeq:    1,
		maxOrd:     -1,
		met:        newStoreMetrics(opt.Metrics),
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.updateGaugesLocked()
	return s, nil
}

func (s *Store) segmentBytes() int64 {
	if s.opt.SegmentBytes > 0 {
		return s.opt.SegmentBytes
	}
	return DefaultSegmentBytes
}

func segPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", index))
}

// frame holds one parsed record's location during recovery/compaction.
type frame struct {
	seq  uint64
	meta Meta
	off  int64
	len  int64
}

// scanSegment parses every well-framed record in data, returning the
// frames (each meta completed from its document), the offset past the last
// good one (torn tails end there), and how many checksummed frames it
// skipped as dead bytes because their payload did not decode.
func scanSegment(data []byte) (frames []frame, good int64, torn bool, dead int) {
	br := bytes.NewReader(data)
	if err := ckpt.ReadHeader(br); err != nil {
		return nil, 0, len(data) > 0, 0
	}
	off := int64(len(data)) - int64(br.Len())
	for {
		rec, err := ckpt.ReadRecord(br)
		end := int64(len(data)) - int64(br.Len())
		if errors.Is(err, io.EOF) {
			return frames, off, false, dead
		}
		if err != nil {
			return frames, off, true, dead
		}
		var e entry
		ok := rec.Kind == recordKind && json.Unmarshal(rec.Data, &e) == nil
		if ok {
			e.Meta, err = withDoc(e.Meta, e.Doc)
		}
		if !ok || err != nil {
			// A checksummed frame with an unusable payload: skip it as
			// dead bytes rather than truncating good records behind it.
			dead++
			off = end
			continue
		}
		frames = append(frames, frame{seq: e.Seq, meta: e.Meta, off: off, len: end - off})
		off = end
	}
}

// recover scans the segment directory and rebuilds the indexes.
func (s *Store) recover() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var indices []int
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-rotation or mid-compaction: the tmp was never
			// renamed, so its contents were never committed.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		var idx int
		if n, err := fmt.Sscanf(name, "seg-%d.log", &idx); n == 1 && err == nil {
			indices = append(indices, idx)
		}
	}
	sort.Ints(indices)

	type segFrames struct {
		seg    *segment
		frames []frame
	}
	var scanned []segFrames
	maxSeq := uint64(0)
	for _, idx := range indices {
		path := segPath(s.dir, idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		frames, good, torn, dead := scanSegment(data)
		if dead > 0 {
			s.logf("runstore: %s: skipped %d records whose payload does not decode", filepath.Base(path), dead)
		}
		if torn {
			s.logf("runstore: %s: torn tail; truncating %d -> %d bytes", filepath.Base(path), len(data), good)
			if good == 0 {
				// No readable header: reinitialize the file.
				if err := f.Truncate(0); err != nil {
					f.Close()
					return err
				}
				if err := ckpt.WriteHeader(f); err != nil {
					f.Close()
					return err
				}
				good = headerSize
			} else if err := f.Truncate(good); err != nil {
				f.Close()
				return err
			}
		}
		if good == 0 {
			// Empty pre-existing file (crash between create and header).
			if err := ckpt.WriteHeader(f); err != nil {
				f.Close()
				return err
			}
			good = headerSize
		}
		seg := &segment{index: idx, path: path, f: f, size: good, records: int64(len(frames))}
		scanned = append(scanned, segFrames{seg: seg, frames: frames})
		for _, fr := range frames {
			if fr.seq > maxSeq {
				maxSeq = fr.seq
			}
		}
	}
	s.nextSeq = maxSeq + 1

	// Fold latest-wins by sequence; equal sequences are duplicates from
	// an interrupted compaction (the renamed output plus a not-yet-deleted
	// input) and the first copy wins.
	for _, sf := range scanned {
		s.segs = append(s.segs, sf.seg)
		s.total += sf.seg.records
		for i := range sf.frames {
			fr := &sf.frames[i]
			id := fr.meta.ID
			s.noteOrdinalLocked(id, fr.seq)
			if fr.meta.Tombstone {
				if cur, ok := s.tombs[id]; !ok || fr.seq > cur {
					s.tombs[id] = fr.seq
				}
				continue
			}
			cur := s.runs[id]
			if cur == nil {
				cur = &runState{}
				s.runs[id] = cur
			} else if fr.seq <= cur.seq {
				continue
			}
			*cur = runState{meta: fr.meta, seq: fr.seq, seg: sf.seg}
		}
	}
	// A tombstone supersedes every older record of its run.
	for id, tseq := range s.tombs {
		if rs := s.runs[id]; rs != nil {
			if rs.seq < tseq {
				delete(s.runs, id)
			} else {
				// The run was re-recorded after its tombstone (should not
				// happen; IDs are never reused) — the newer record wins.
				delete(s.tombs, id)
			}
		}
	}
	for _, rs := range s.runs {
		rs.seg.live++
	}
	shareRepeatedValues(s.runs)

	// Build the ordered indexes in one sort instead of n insertions.
	s.order = make([]*runState, 0, len(s.runs))
	for _, rs := range s.runs {
		s.order = append(s.order, rs)
	}
	sort.Slice(s.order, func(i, j int) bool { return stateLess(s.order[i], s.order[j]) })
	for _, rs := range s.order {
		s.byTenant[rs.meta.Tenant] = append(s.byTenant[rs.meta.Tenant], rs)
		if rs.meta.Scenario != "" {
			s.byScenario[rs.meta.Scenario] = append(s.byScenario[rs.meta.Scenario], rs)
		}
	}

	if len(s.segs) == 0 {
		if err := s.addSegmentLocked(1); err != nil {
			return err
		}
	}
	return nil
}

// shareRepeatedValues makes a recovered index share what a live one
// shares. Decoding gave every frame its own copy of each string and its
// own artifact map; live, a cache hit's artifact map is its source's map
// and the low-cardinality strings are few. The tables die with the call:
// a long-lived one would cost a population of distinct runs more than it
// saves, and the live path already shares without it.
func shareRepeatedValues(runs map[string]*runState) {
	strs := map[string]string{}
	maps := map[string]map[string]string{}
	var names []string
	var sig []byte
	for _, rs := range runs {
		m := &rs.meta
		for _, p := range [...]*string{&m.Tenant, &m.Scenario, &m.State, &m.Machine, &m.Worker, &m.Key, &m.XML} {
			if v, ok := strs[*p]; ok {
				*p = v
			} else {
				strs[*p] = *p
			}
		}
		if len(m.Artifacts) == 0 {
			continue
		}
		// The signature is length-prefixed, so no choice of names and
		// digests makes two different maps read alike.
		names = names[:0]
		for name := range m.Artifacts {
			names = append(names, name)
		}
		sort.Strings(names)
		sig = sig[:0]
		for _, name := range names {
			for _, v := range [...]string{name, m.Artifacts[name]} {
				sig = strconv.AppendInt(sig, int64(len(v)), 10)
				sig = append(sig, ':')
				sig = append(sig, v...)
			}
		}
		if shared, ok := maps[string(sig)]; ok {
			m.Artifacts = shared
		} else {
			maps[string(sig)] = m.Artifacts
		}
	}
}

// headerSize is the ckpt file header's length (magic + version).
const headerSize = 6

// stateLess orders index entries by (SubmittedAtNs, ID).
func stateLess(a, b *runState) bool {
	if a.meta.SubmittedAtNs != b.meta.SubmittedAtNs {
		return a.meta.SubmittedAtNs < b.meta.SubmittedAtNs
	}
	return a.meta.ID < b.meta.ID
}

// keyLess orders an index entry against a bare (ns, id) key.
func keyLess(rs *runState, ns int64, id string) bool {
	if rs.meta.SubmittedAtNs != ns {
		return rs.meta.SubmittedAtNs < ns
	}
	return rs.meta.ID < id
}

// addSegmentLocked creates a fresh active segment file with its header.
func (s *Store) addSegmentLocked(index int) error {
	path := segPath(s.dir, index)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := ckpt.WriteHeader(f); err != nil {
		f.Close()
		return err
	}
	s.segs = append(s.segs, &segment{index: index, path: path, f: f, size: headerSize})
	return nil
}

// Append records a run's current state. The latest append per run ID
// wins; older records become compactable garbage. A non-empty doc is
// written beside the meta, as older coordinators wrote one, and completes
// it the way recovery would (withDoc); a doc withDoc rejects is refused.
func (s *Store) Append(m Meta, doc []byte) error {
	s.mu.Lock()
	err := s.appendLocked(m, doc)
	compact := err == nil && s.needCompactLocked()
	if compact {
		s.compacting = true
		s.cwg.Add(1)
	}
	s.mu.Unlock()
	if compact {
		go s.compactOwned()
	}
	return err
}

func (s *Store) appendLocked(m Meta, doc []byte) error {
	if s.closed {
		s.met.appendErrs.Inc()
		return ErrClosed
	}
	m, err := withDoc(m, doc)
	if err != nil {
		s.met.appendErrs.Inc()
		return err
	}
	seq := s.nextSeq
	s.nextSeq++
	if s.dir == "" {
		s.met.appends.Inc()
		s.total++
		s.applyLocked(runState{meta: m, seq: seq})
		s.updateGaugesLocked()
		return nil
	}
	data, err := json.Marshal(entry{Seq: seq, Meta: m, Doc: doc})
	if err != nil {
		s.met.appendErrs.Inc()
		return err
	}
	var buf bytes.Buffer
	if err := ckpt.WriteRecord(&buf, ckpt.Record{Kind: recordKind, Data: data}); err != nil {
		s.met.appendErrs.Inc()
		return err
	}
	active := s.segs[len(s.segs)-1]
	if active.records > 0 && active.size+int64(buf.Len()) > s.segmentBytes() {
		if err := s.addSegmentLocked(active.index + 1); err != nil {
			s.met.appendErrs.Inc()
			return err
		}
		s.met.rotations.Inc()
		active = s.segs[len(s.segs)-1]
	}
	if _, err := active.f.WriteAt(buf.Bytes(), active.size); err != nil {
		s.met.appendErrs.Inc()
		return err
	}
	active.size += int64(buf.Len())
	active.records++
	s.total++
	s.met.appends.Inc()
	s.applyLocked(runState{meta: m, seq: seq, seg: active})
	s.updateGaugesLocked()
	return nil
}

// applyLocked folds one new record into the indexes.
func (s *Store) applyLocked(rec runState) {
	id := rec.meta.ID
	s.noteOrdinalLocked(id, rec.seq)
	if rec.meta.Tombstone {
		if rs := s.runs[id]; rs != nil {
			s.removeIndexedLocked(rs)
		}
		s.tombs[id] = rec.seq
		return
	}
	if rec.seg != nil {
		rec.seg.live++
	}
	if rs := s.runs[id]; rs != nil {
		if rs.seg != nil {
			rs.seg.live--
		}
		*rs = rec
		return
	}
	rs := new(runState) // not &rec: superseding appends must not allocate
	*rs = rec
	s.runs[id] = rs
	insert := func(list []*runState) []*runState {
		i := sort.Search(len(list), func(i int) bool { return !stateLess(list[i], rs) })
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = rs
		return list
	}
	s.order = insert(s.order)
	s.byTenant[rs.meta.Tenant] = insert(s.byTenant[rs.meta.Tenant])
	if rs.meta.Scenario != "" {
		s.byScenario[rs.meta.Scenario] = insert(s.byScenario[rs.meta.Scenario])
	}
}

// ordinalOf returns the decimal number a run ID ends in ("run-000042" →
// 42), or -1 when it ends in none.
func ordinalOf(id string) int64 {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	n, err := strconv.ParseInt(id[i:], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// noteOrdinalLocked folds one record (a tombstone carries its victim's
// ID, so its ordinal too) into the ordinal high-water.
func (s *Store) noteOrdinalLocked(id string, seq uint64) {
	o := ordinalOf(id)
	if o < 0 || o < s.maxOrd || (o == s.maxOrd && seq < s.maxOrdSeq) {
		return
	}
	s.maxOrd, s.maxOrdSeq = o, seq
}

// MaxOrdinal returns the greatest run ordinal ever appended, deleted runs
// included (-1: none) — the floor for a restarted coordinator's next ID.
func (s *Store) MaxOrdinal() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maxOrd
}

// removeIndexedLocked drops a run from every index (tombstoning).
func (s *Store) removeIndexedLocked(rs *runState) {
	delete(s.runs, rs.meta.ID)
	if rs.seg != nil {
		rs.seg.live--
	}
	remove := func(list []*runState) []*runState {
		i := sort.Search(len(list), func(i int) bool {
			return !keyLess(list[i], rs.meta.SubmittedAtNs, rs.meta.ID)
		})
		for ; i < len(list); i++ {
			if list[i] == rs {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	s.order = remove(s.order)
	s.byTenant[rs.meta.Tenant] = remove(s.byTenant[rs.meta.Tenant])
	if len(s.byTenant[rs.meta.Tenant]) == 0 {
		delete(s.byTenant, rs.meta.Tenant)
	}
	if rs.meta.Scenario != "" {
		s.byScenario[rs.meta.Scenario] = remove(s.byScenario[rs.meta.Scenario])
		if len(s.byScenario[rs.meta.Scenario]) == 0 {
			delete(s.byScenario, rs.meta.Scenario)
		}
	}
}

func (s *Store) updateGaugesLocked() {
	live := int64(len(s.runs))
	var diskBytes int64
	for _, seg := range s.segs {
		diskBytes += seg.size
	}
	s.met.segments.Set(float64(len(s.segs)))
	s.met.diskBytes.Set(float64(diskBytes))
	s.met.liveRecords.Set(float64(live))
	s.met.deadRecords.Set(float64(s.total - live))
}

// GetMeta returns a run's latest record (ok=false: unknown or tombstoned).
func (s *Store) GetMeta(id string) (Meta, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.runs[id]
	if rs == nil {
		return Meta{}, false
	}
	return rs.meta, true
}

// Len returns the live run count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

// EachMeta calls fn for every live run in submission order until fn
// returns false. The pointer is the index entry itself: valid for that
// call of fn only, and read-only (a caller that keeps anything copies
// it). fn must not call back into the store's locked methods.
func (s *Store) EachMeta(fn func(*Meta) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rs := range s.order {
		if !fn(&rs.meta) {
			return
		}
	}
}

// Digests returns the set of artifact blob digests referenced by any
// live run — the keep-set for blob GC.
func (s *Store) Digests() map[string]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keep := make(map[string]bool)
	for _, rs := range s.runs {
		for _, d := range rs.meta.Artifacts {
			keep[d] = true
		}
	}
	return keep
}

// Stats is the store's record accounting (tests and diagnostics).
type Stats struct {
	Segments     int
	LiveRecords  int64
	DeadRecords  int64
	TotalRecords int64
	DiskBytes    int64
}

// Stats returns the current record accounting.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Segments: len(s.segs), LiveRecords: int64(len(s.runs)), TotalRecords: s.total}
	st.DeadRecords = st.TotalRecords - st.LiveRecords
	for _, seg := range s.segs {
		st.DiskBytes += seg.size
	}
	return st
}

// Close flushes nothing (appends are written through), waits for any
// in-flight compaction, and closes the segment handles.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cwg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	return nil
}

// Query filters and paginates the run history.
type Query struct {
	Tenant   string
	Scenario string
	State    string
	// Since/Until bound SubmittedAt (inclusive; zero = unbounded).
	Since time.Time
	Until time.Time
	// Limit caps the page size (<= 0: unlimited, internal callers).
	Limit int
	// PageToken resumes after a previous page's NextPageToken.
	PageToken string
}

// Page is one query result page. NextPageToken is "" on the last page.
type Page struct {
	Items         []Meta
	NextPageToken string
}

// encodePageToken/decodePageToken round-trip the cursor: the last
// delivered run's (SubmittedAtNs, ID), resumed strictly-after. A token
// decodes only if it is what encodePageToken gives for what it decodes to,
// so a corrupted one ("+12|…", "0x1f|…", stray base64 bits) is refused
// rather than read as some nearby cursor.
func encodePageToken(ns int64, id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%d|%s", ns, id)))
}

var errBadPageToken = errors.New("runstore: bad page token")

func decodePageToken(tok string) (ns int64, id string, err error) {
	raw, err := base64.RawURLEncoding.Strict().DecodeString(tok)
	if err != nil {
		return 0, "", errBadPageToken
	}
	num, id, ok := strings.Cut(string(raw), "|")
	if !ok {
		return 0, "", errBadPageToken
	}
	if ns, err = strconv.ParseInt(num, 10, 64); err != nil || encodePageToken(ns, id) != tok {
		return 0, "", errBadPageToken
	}
	return ns, id, nil
}

// Query runs one indexed, filtered, cursor-paginated query. Results are
// in (SubmittedAt, ID) order; a page token from any page resumes exactly
// after its last item, so walking pages yields every match exactly once
// even as new runs are appended behind the cursor.
func (s *Store) Query(q Query) (Page, error) { return s.AppendQuery(nil, q) }

// AppendQuery is Query with the page's records appended to dst: its Items
// are dst and the page, so a caller that keeps Items for its next query
// pays for no page once it has grown to the pages it asks for.
func (s *Store) AppendQuery(dst []Meta, q Query) (Page, error) {
	start := time.Now()
	defer func() { s.met.querySeconds.Observe(time.Since(start).Seconds()) }()

	var curNs int64
	var curID string
	hasCursor := false
	if q.PageToken != "" {
		var err error
		if curNs, curID, err = decodePageToken(q.PageToken); err != nil {
			return Page{Items: dst}, err
		}
		hasCursor = true
	}

	s.mu.RLock()
	defer s.mu.RUnlock()

	// Pick the narrowest index; remaining filters apply during the scan.
	src := s.order
	if q.Tenant != "" {
		src = s.byTenant[q.Tenant]
	} else if q.Scenario != "" {
		src = s.byScenario[q.Scenario]
	}

	i := 0
	if !q.Since.IsZero() {
		sinceNs := q.Since.UnixNano()
		i = sort.Search(len(src), func(i int) bool { return src[i].meta.SubmittedAtNs >= sinceNs })
	}
	if hasCursor {
		j := sort.Search(len(src), func(i int) bool { return !keyLess(src[i], curNs, curID) })
		// Resume strictly after the cursor entry itself.
		if j < len(src) && src[j].meta.SubmittedAtNs == curNs && src[j].meta.ID == curID {
			j++
		}
		if j > i {
			i = j
		}
	}
	var untilNs int64
	if !q.Until.IsZero() {
		untilNs = q.Until.UnixNano()
	}

	match := func(rs *runState) bool {
		if q.Tenant != "" && rs.meta.Tenant != q.Tenant {
			return false
		}
		if q.Scenario != "" && rs.meta.Scenario != q.Scenario {
			return false
		}
		if q.State != "" && rs.meta.State != q.State {
			return false
		}
		return true
	}

	// With a limit, dst grows at most once, to the most the page can hold.
	if q.Limit > 0 {
		dst = slices.Grow(dst, min(q.Limit, len(src)-i))
	}
	base := len(dst)
	more := false
	for ; i < len(src); i++ {
		rs := src[i]
		if untilNs != 0 && rs.meta.SubmittedAtNs > untilNs {
			break
		}
		if !match(rs) {
			continue
		}
		if q.Limit > 0 && len(dst)-base == q.Limit {
			more = true // one more match past the full page: hand out a cursor
			break
		}
		dst = append(dst, rs.meta)
	}
	page := Page{Items: dst}
	if more {
		last := &dst[len(dst)-1]
		page.NextPageToken = encodePageToken(last.SubmittedAtNs, last.ID)
	}
	return page, nil
}
