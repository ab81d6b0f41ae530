package exp

import (
	"bytes"
	"encoding/json"
)

// A Slot runs one job at a time, as a worker slot does, and renders each
// job's artifacts into buffers it keeps from job to job: once the slot is
// warm, a job whose artifacts are no larger than an earlier job's allocates
// no artifact bytes. The shipped documents compile through its Docs, which
// the slots of one worker share.
//
// A JobOutcome from Slot.RunJob aliases the slot's buffers: its Artifacts
// map and the artifacts in it hold until the slot's next job, which
// overwrites them. A caller that keeps an artifact past that — a blob
// store that took the slice over — calls Drop with its name, and the slot
// renders the next job's artifact of that name into a fresh buffer.
//
// A Slot is not safe for concurrent jobs; its Docs is.
type Slot struct {
	docs *Docs

	report   bytes.Buffer
	enc      *json.Encoder // writes into report; it keeps its indent buffer
	gantt    bytes.Buffer
	perfetto []byte
	perf     perfettoRender // its node tracks, names and labels, reused
	metrics  []byte
	arts     map[string][]byte // the outcome's Artifacts, refilled each job
}

// NewSlot returns a slot whose shipped documents compile through d; a nil
// d compiles each afresh.
func NewSlot(d *Docs) *Slot {
	s := &Slot{docs: d}
	s.enc = json.NewEncoder(&s.report)
	s.enc.SetIndent("", "  ")
	return s
}

// RunJob is the package-level RunJob with the shipped documents compiled
// through the slot's Docs and the artifacts rendered into the slot's
// buffers, valid until the slot's next job.
func (s *Slot) RunJob(j Job, configure func(*World) error) (*JobOutcome, error) {
	j, cfg, err := j.normalize()
	if err != nil {
		return nil, err
	}
	return s.run(j, cfg, configure)
}

// Drop hands the named artifact's buffer to the caller for good: the
// slot's next job renders that artifact into a fresh buffer.
func (s *Slot) Drop(name string) {
	switch name {
	case ArtifactReport:
		s.report = bytes.Buffer{}
	case ArtifactGantt:
		s.gantt = bytes.Buffer{}
	case ArtifactPerfetto:
		s.perfetto = nil
	case ArtifactMetrics:
		s.metrics = nil
	}
}

// render renders the finished world's artifact set into the slot's
// buffers: the report as json.MarshalIndent and a newline would, the
// gantt chart, the Perfetto timeline and the metrics snapshot.
func (s *Slot) render(w *World, rep *Report) (map[string][]byte, error) {
	w.Rec.CloseOpen()
	s.report.Reset()
	if err := s.enc.Encode(rep); err != nil {
		return nil, err
	}
	s.gantt.Reset()
	w.Rec.Gantt(&s.gantt, 100)
	var err error
	if s.perfetto, err = s.perf.append(s.perfetto[:0], w); err != nil {
		return nil, err
	}
	if s.metrics, err = w.Metrics.AppendJSON(s.metrics[:0]); err != nil {
		return nil, err
	}
	if s.arts == nil {
		s.arts = make(map[string][]byte, 4)
	}
	s.arts[ArtifactReport] = s.report.Bytes()
	s.arts[ArtifactGantt] = s.gantt.Bytes()
	s.arts[ArtifactPerfetto] = s.perfetto
	s.arts[ArtifactMetrics] = s.metrics
	return s.arts, nil
}
