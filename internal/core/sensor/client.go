package sensor

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dyflow/internal/core/spec"
	"dyflow/internal/fsim"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
	"dyflow/internal/stream"
	"dyflow/internal/task"
)

// Workload is the client's view of the running workflow, provided by the
// orchestrator from the WMS: where a task's processes are placed. The
// Monitor server keeps clients consistent with runtime changes through
// this indirection.
type Workload interface {
	// Placement returns the task's current placement (nil if not running).
	Placement(workflow, taskName string) task.Placement
}

// Client executes the sensors bound to its share of monitored tasks and
// ships updates to the Monitor server. One client can run per compute node
// or a single client can cover the whole workflow; experiments use one by
// default and scale out in the scaling tests.
type Client struct {
	name     string
	env      *task.Env
	ep       *msg.Endpoint
	server   string
	cfg      *spec.Config
	targets  []spec.MonitorTarget
	workload Workload
	procs    []*sim.Proc
	// stopping marks a deliberate Stop so interrupted workers exit instead
	// of treating the interrupt as a detached stream and re-probing.
	stopping bool
	// states holds each worker's resumable position, keyed by worker name.
	// It survives Stop/Start cycles and is what Snapshot/Restore carry.
	states map[string]*WorkerState
	// scans holds the DISKSCAN extractions, one per (pattern, info), shared
	// by every worker polling that pair. Derived state: rebuilt from the
	// filesystem on first use, never part of a snapshot.
	scans map[scanKey]*diskScan
	spawn func(name string, fn func(*sim.Proc)) *sim.Proc
	// batches are the released batches build reuses (payload.go).
	batches []*Batch

	mDropped *obs.CounterVec
}

// Worker phases. Each names the sleep (or blocking receive) a worker parks
// in, so a checkpoint can record exactly where to resume.
const (
	// phaseInterval: sleeping out a poll interval.
	phaseInterval = "interval"
	// phaseRead: sleeping out the disk-read cost with a pending shipment.
	phaseRead = "read"
	// phaseProbe: sleeping before re-probing for a stream incarnation.
	phaseProbe = "probe"
	// phaseRecv: blocked on the attached stream reader (no wake deadline).
	phaseRecv = "recv"
	// phaseDecode: sleeping out a record's decode cost with a pending
	// shipment.
	phaseDecode = "decode"
)

// PendingShip is a formulated-but-not-yet-shipped reading set: the payload
// a worker is sleeping out a read/decode cost for. Checkpointed so a
// restored worker ships it at the original instant instead of losing it.
type PendingShip struct {
	Readings Readings `json:"readings"`
	Step     int      `json:"step"`
	GenAt    sim.Time `json:"gen_at"`

	// scan and gen name the DISKSCAN extraction Readings is, at its watch
	// generation: what ship compares to decide a re-send. scan is nil for
	// every other source and for a shipment restored from a checkpoint.
	scan *diskScan
	gen  uint64
}

// WorkerState is one worker's resumable position: which phase it is parked
// in, the absolute wake instant of its current sleep, a mid-read/mid-decode
// pending shipment, and — for stream workers — the reader backlog captured
// at checkpoint, replayed before reattaching. Only the exported fields are
// checkpointed: a restored worker starts without a reader and without a
// last shipment.
type WorkerState struct {
	Phase  string   `json:"phase,omitempty"`
	WakeAt sim.Time `json:"wake_at,omitempty"`
	// Pending is nil or, while a shipment is owed, points at pend (or, on a
	// restored worker, at the checkpoint's copy).
	Pending  *PendingShip  `json:"pending,omitempty"`
	Buffered []stream.Step `json:"buffered,omitempty"`

	reader *stream.Reader // live attachment
	// pend is the worker's one pending shipment, reused by every poll and
	// decode instead of allocated by each.
	pend PendingShip
	// one holds the single reading of a DB or ERRORSTATUS poll:
	// pend.Readings is one[:] until the shipment is built, and build keeps
	// none of it, so the next poll may overwrite it.
	one [1]float64
	// last is what ship last sent for a DISKSCAN extraction.
	last shipment
	// series are the descriptors the worker's updates name, interned the
	// first time it ships each: its task series, and a node-task series
	// per node.
	series []*Series
}

// seriesFor returns the worker's descriptor for its target's series at
// granularity g on node, interning it on first use. A worker ships a
// handful of series, so the scan compares a node name or two.
func (st *WorkerState) seriesFor(tg spec.MonitorTarget, def *spec.SensorDef, g spec.Granularity, node string) *Series {
	for _, s := range st.series {
		if s.Key.Granularity == g && s.Key.Node == node {
			return s
		}
	}
	s := &Series{Key: Key{Workflow: tg.Workflow, Task: tg.Task, Sensor: def.ID, Granularity: g, Node: node}}
	st.series = append(st.series, s)
	return s
}

// shipment is the batch a poll worker last sent for a DISKSCAN extraction:
// the extraction (scan, watch generation, step, generation instant), the
// batch, nil when the readings formulated nothing, which the shipment
// holds as its re-send cache, and the NaN and Inf readings sanitize
// dropped building it.
type shipment struct {
	scan     *diskScan
	gen      uint64
	step     int
	genAt    sim.Time
	batch    *Batch
	nan, inf int64
}

// NewClient creates a monitor client named name, shipping updates to the
// server endpoint, executing the given targets. spawn starts the worker
// processes (the orchestrator's supervisor hands in a panic-guarded
// spawner). Invalid (NaN/±Inf) sensor readings are counted in reg's
// dyflow_sensor_dropped_samples_total by reason.
func NewClient(name string, env *task.Env, bus *msg.Bus, server string, cfg *spec.Config, targets []spec.MonitorTarget, workload Workload, spawn func(name string, fn func(*sim.Proc)) *sim.Proc, reg *obs.Registry) *Client {
	return &Client{
		name:     name,
		env:      env,
		ep:       bus.Endpoint(name),
		server:   server,
		cfg:      cfg,
		targets:  targets,
		workload: workload,
		spawn:    spawn,
		scans:    make(map[scanKey]*diskScan),
		mDropped: reg.Counter("dyflow_sensor_dropped_samples_total",
			"Sensor readings discarded before metric formulation.", "reason"),
	}
}

// Start spawns one worker process per (target, sensor-use) binding. Start
// after Stop (or after Restore) resumes each worker from its recorded
// state.
func (c *Client) Start() {
	c.stopping = false
	c.procs = nil
	if c.states == nil {
		c.states = make(map[string]*WorkerState)
	}
	for _, tg := range c.targets {
		for _, use := range tg.Sensors {
			def := c.cfg.Sensors[use.SensorID]
			if def == nil {
				continue
			}
			tg, use, def := tg, use, def
			pname := fmt.Sprintf("%s/%s.%s.%s", c.name, tg.Workflow, tg.Task, def.ID)
			st := c.states[pname]
			if st == nil {
				st = &WorkerState{}
				c.states[pname] = st
			}
			var body func(p *sim.Proc)
			switch def.Source {
			case spec.SourceTAUADIOS2, spec.SourceADIOS2:
				body = func(p *sim.Proc) { c.streamWorker(p, tg, def, st) }
			case spec.SourceDiskScan, spec.SourceErrorStatus, spec.SourceDB:
				body = func(p *sim.Proc) { c.pollWorker(p, tg, use, def, st) }
			default:
				continue
			}
			c.procs = append(c.procs, c.spawn(pname, body))
		}
	}
}

// Stop interrupts all worker processes. Idempotent; a later Start resumes
// the workers from where they stopped.
func (c *Client) Stop() {
	c.stopping = true
	for _, p := range c.procs {
		p.Interrupt(nil)
	}
}

// sleepPhase parks the worker in the given phase until the absolute wake
// instant, recording both so a checkpoint taken mid-sleep can resume the
// remaining time.
func (c *Client) sleepPhase(p *sim.Proc, st *WorkerState, phase string, wake sim.Time) error {
	st.Phase = phase
	st.WakeAt = wake
	d := wake - c.env.Sim.Now()
	if d < 0 {
		d = 0
	}
	return p.Sleep(d)
}

// streamName resolves the stream a streamed sensor reads.
func streamName(tg spec.MonitorTarget, def *spec.SensorDef) string {
	if tg.InfoSource != "" {
		return tg.InfoSource
	}
	if def.Source == spec.SourceTAUADIOS2 {
		return task.ProfileStreamName(tg.Task)
	}
	return ""
}

// streamWorker consumes a staging stream, re-attaching across task
// restarts — the Monitor stage "sets (or resets) connections to input
// streams ... when the workflow tasks start (or restart)".
func (c *Client) streamWorker(p *sim.Proc, tg spec.MonitorTarget, def *spec.SensorDef, st *WorkerState) {
	name := streamName(tg, def)
	if name == "" {
		return
	}
	// A restored mid-stream worker replays before rejoining the live
	// stream: reattach immediately (the fresh reader buffers records
	// produced from this instant on, standing in for the lost reader),
	// finish the interrupted decode, then decode the checkpointed backlog.
	if st.Pending != nil || len(st.Buffered) > 0 || st.Phase == phaseRecv {
		if stm := c.env.Streams.Lookup(name); stm != nil {
			st.reader = stm.Attach(4, stream.DropOldest)
		}
		if st.Pending != nil {
			if err := c.sleepPhase(p, st, phaseDecode, st.WakeAt); err != nil {
				return
			}
			c.shipPending(st, tg, def)
		}
		for len(st.Buffered) > 0 {
			rec := st.Buffered[0]
			st.Buffered = st.Buffered[1:]
			if err := c.decodeShip(p, st, tg, def, rec); err != nil {
				return
			}
		}
		if st.reader != nil {
			if !c.consume(p, st, tg, def) {
				return
			}
			if err := c.sleepPhase(p, st, phaseProbe, c.env.Sim.Now()+PollInterval); err != nil {
				return
			}
		}
	}
	for {
		// Resume a checkpointed probe backoff before probing again.
		if st.Phase == phaseProbe && st.WakeAt > c.env.Sim.Now() {
			if err := c.sleepPhase(p, st, phaseProbe, st.WakeAt); err != nil {
				return
			}
		}
		stm := c.env.Streams.Lookup(name)
		if stm == nil || stm.Closed() {
			if err := c.sleepPhase(p, st, phaseProbe, c.env.Sim.Now()+PollInterval); err != nil {
				return
			}
			continue
		}
		st.reader = stm.Attach(4, stream.DropOldest)
		if !c.consume(p, st, tg, def) {
			return
		}
		// Wait before probing for the task's next incarnation.
		if err := c.sleepPhase(p, st, phaseProbe, c.env.Sim.Now()+PollInterval); err != nil {
			return
		}
	}
}

// consume drains the attached reader until it detaches. A false return
// means the worker must exit (stopped or interrupted).
func (c *Client) consume(p *sim.Proc, st *WorkerState, tg spec.MonitorTarget, def *spec.SensorDef) bool {
	r := st.reader
	for {
		st.Phase = phaseRecv
		st.WakeAt = 0
		rec, err := r.Get(p)
		if errors.Is(err, sim.ErrStopped) {
			return false // sim.Stop: the reader stays attached, as it was
		}
		if err != nil {
			break // detached (task ended) or interrupted
		}
		if err := c.decodeShip(p, st, tg, def, rec); err != nil {
			if !errors.Is(err, sim.ErrStopped) {
				r.Close()
				st.reader = nil
			}
			return false
		}
	}
	r.Close()
	st.reader = nil
	return !c.stopping && !p.Done() && p.Err() == nil
}

// decodeShip sleeps out a record's decode cost (checkpointable as a
// pending shipment), ships the formulated readings and releases the
// record. An interrupted decode keeps it: the pending readings alias it.
func (c *Client) decodeShip(p *sim.Proc, st *WorkerState, tg spec.MonitorTarget, def *spec.SensorDef, rec stream.Step) error {
	// Decoding cost scales with the record's per-rank payload.
	cost := StreamBase + time.Duration(len(rec.Array))*StreamPerValue
	st.pend = PendingShip{Readings: rec.Array, Step: rec.Index, GenAt: rec.Produced}
	st.Pending = &st.pend
	if err := c.sleepPhase(p, st, phaseDecode, c.env.Sim.Now()+cost); err != nil {
		return err
	}
	c.shipPending(st, tg, def)
	rec.Release()
	return nil
}

// pollWorker periodically scans disk-based sources.
func (c *Client) pollWorker(p *sim.Proc, tg spec.MonitorTarget, use spec.SensorUse, def *spec.SensorDef, st *WorkerState) {
	// Finish a restored mid-read poll first: the readings were already
	// taken, only the remaining disk-read time and the shipment are owed.
	if st.Phase == phaseRead && st.Pending != nil {
		if err := c.sleepPhase(p, st, phaseRead, st.WakeAt); err != nil {
			return
		}
		c.shipPending(st, tg, def)
	}
	path := pollPath(tg, def)
	for {
		wake := c.env.Sim.Now() + PollInterval
		if st.Phase == phaseInterval && st.WakeAt > c.env.Sim.Now() {
			wake = st.WakeAt // resume the checkpointed interval
		}
		if err := c.sleepPhase(p, st, phaseInterval, wake); err != nil {
			return
		}
		pend, ok := c.pollOnce(st, tg, use, def, path)
		if !ok {
			continue
		}
		// Reading from disk costs real time before the update can ship.
		st.pend = pend
		st.Pending = &st.pend
		if err := c.sleepPhase(p, st, phaseRead, c.env.Sim.Now()+DiskRead); err != nil {
			return
		}
		c.shipPending(st, tg, def)
	}
}

// shipPending ships the worker's pending shipment, which it then no longer
// owes.
func (c *Client) shipPending(st *WorkerState, tg spec.MonitorTarget, def *spec.SensorDef) {
	pend := *st.Pending
	st.Pending = nil
	c.ship(st, tg, def, pend)
}

// pollPath is the file an ERRORSTATUS target reads, resolved once per
// target: its InfoSource, or without one its task's exit-status file.
func pollPath(tg spec.MonitorTarget, def *spec.SensorDef) string {
	if def.Source == spec.SourceErrorStatus && tg.InfoSource == "" {
		return task.StatusPath(tg.Workflow, tg.Task)
	}
	return tg.InfoSource
}

// pollOnce reads the current state of a disk-based source for worker st;
// path is the target's pollPath. A DISKSCAN reading names the extraction
// it is; a single reading is st's one slot.
func (c *Client) pollOnce(st *WorkerState, tg spec.MonitorTarget, use spec.SensorUse, def *spec.SensorDef, path string) (PendingShip, bool) {
	info := use.Info
	switch def.Source {
	case spec.SourceDiskScan:
		sc := c.scanFor(tg.InfoSource, info)
		if sc == nil {
			return PendingShip{}, false // a malformed pattern matches nothing
		}
		sc.refresh()
		return PendingShip{Readings: sc.readings, Step: sc.step, GenAt: sc.genAt, scan: sc, gen: sc.gen}, len(sc.readings) > 0
	case spec.SourceDB:
		if c.env.DB == nil {
			return PendingShip{}, false
		}
		key := tg.InfoSource
		if key == "" {
			key = use.Info
		}
		rec, found := c.env.DB.Latest(key)
		if !found {
			return PendingShip{}, false
		}
		st.one[0] = rec.Value
		return PendingShip{Readings: st.one[:], Step: rec.Step, GenAt: rec.At}, true
	case spec.SourceErrorStatus:
		if info == "" {
			info = "exitcode"
		}
		f := c.env.FS.Lookup(path)
		if f == nil {
			return PendingShip{}, false
		}
		v, found := f.Var(info)
		if !found {
			return PendingShip{}, false
		}
		st.one[0] = v
		return PendingShip{Readings: st.one[:], GenAt: f.MTime}, true
	}
	return PendingShip{}, false
}

// scanKey identifies one disk-scan extraction: which files, which variable.
type scanKey struct{ pattern, info string }

// diskScan is the last extraction of one variable from the files matching
// a watched pattern. It stays valid until the watch's generation moves —
// the thousands of polls between two output files re-ship it without
// touching a path, and each worker re-sends the batch it built from it (see
// ship). When the watch only gained files at the tail since the extraction,
// refresh extends it over the new files alone.
//
// readings is shared with in-flight shipments: it is handed out as
// buf[:n:n], an extension appends past n into buf, and a full rebuild
// starts a new buf, so no reading a shipment holds is ever overwritten.
type diskScan struct {
	watch *fsim.Watch
	info  string
	// gen is the watch generation the extraction was taken at; it starts
	// at a value no watch reaches, so the first poll extracts.
	gen uint64
	// seen is the number of watched files the extraction covers.
	seen int

	buf      []float64
	readings []float64
	step     int
	genAt    sim.Time
}

// scanFor returns the shared extraction for (pattern, info), registering
// the pattern's watch on first use. It is nil for a malformed pattern.
func (c *Client) scanFor(pattern, info string) *diskScan {
	key := scanKey{pattern, info}
	sc, ok := c.scans[key]
	if !ok {
		if pat, err := fsim.Compile(pattern); err == nil {
			sc = &diskScan{watch: c.env.FS.Watch(pat), info: info, gen: ^uint64(0)}
		}
		c.scans[key] = sc
	}
	return sc
}

// refresh brings the extraction up to the watch's generation: the
// variable's value per file in path order, the newest mtime and the highest
// step among the files carrying it. If every mutation since the extraction
// was a tail append, the files it covers are unchanged and only the new
// ones are read; any other mutation re-reads every file.
func (sc *diskScan) refresh() {
	w := sc.watch
	if sc.gen == w.Gen() {
		return
	}
	if sc.gen > w.Gen() || sc.gen < w.Rewritten() {
		// The first extraction, or a file it covers changed: re-read all
		// into a new array, leaving the old one to the shipments holding it.
		sc.buf, sc.seen, sc.step, sc.genAt = make([]float64, 0, len(sc.buf)+1), 0, 0, 0
	}
	w.Visit(sc.seen, func(f *fsim.File) {
		v, found := f.Var(sc.info)
		if !found {
			return
		}
		sc.buf = append(sc.buf, v)
		if f.MTime > sc.genAt {
			sc.genAt = f.MTime
		}
		if s, _ := f.Var("step"); int(s) > sc.step {
			sc.step = int(s)
		}
	})
	n := len(sc.buf)
	sc.readings = sc.buf[:n:n]
	sc.seen, sc.gen = w.Len(), w.Gen()
}

// ship formulates the client-side granularities from a pending shipment's
// per-process readings and sends them to the server.
//
// A DISKSCAN poll of unchanged files — most polls: the files change once
// per output step, the poll runs every second — re-sends the batch the
// worker built from the same extraction instead of building an equal one.
// The worker's shipment caches that batch, so it is not recycled while
// cached, and the sanitize drops it counted are counted again, so the
// server and the metrics see exactly what a rebuild would give them.
// Every other reading is built afresh: streamed, DB and ERRORSTATUS
// readings carry no extraction to compare.
func (c *Client) ship(st *WorkerState, tg spec.MonitorTarget, def *spec.SensorDef, pend PendingShip) {
	last := &st.last
	if pend.scan != nil && pend.scan == last.scan && pend.gen == last.gen &&
		pend.Step == last.step && pend.GenAt == last.genAt {
		c.countDropped(last.nan, last.inf)
		c.send(last.batch)
		return
	}
	// A node-task or node-workflow group reads Workload.Placement, which
	// moves with the task (a restart, an added CPU) while the files — and
	// so the watch generation — stay put: such a batch is never reused.
	cache := pend.scan != nil && !def.HasGranularity(spec.GranNodeTask) && !def.HasGranularity(spec.GranNodeWorkflow)
	if cache && last.batch != nil {
		last.batch.lease.Cache(false)
		last.batch.recycle()
	}
	batch, nan, inf := c.build(st, tg, def, pend.Readings, pend.Step, pend.GenAt)
	if cache {
		*last = shipment{scan: pend.scan, gen: pend.gen, step: pend.Step, genAt: pend.GenAt, batch: batch, nan: nan, inf: inf}
		if batch != nil {
			batch.lease.Cache(true)
		}
	}
	c.send(batch)
}

// send sends a batch, if there is one, to the server, counting the
// envelope it rides in.
func (c *Client) send(b *Batch) {
	if b != nil && c.ep.Send(c.server, b) == nil {
		b.lease.Hold()
	}
}

// build formulates the batch ship sends for worker st, or nil when the
// readings formulate no update. A batch comes off the client's free list,
// or is allocated when the list is empty. nan and inf count the readings
// sanitize dropped.
func (c *Client) build(st *WorkerState, tg spec.MonitorTarget, def *spec.SensorDef, readings []float64, step int, genAt sim.Time) (batch *Batch, nan, inf int64) {
	readings, nan, inf = c.sanitize(readings)
	if len(readings) == 0 {
		return nil, nan, inf
	}
	// Preprocess distills the staged array into a single reading before
	// metric formulation.
	if def.Preprocess != nil {
		if v, ok := stats.Reduce(*def.Preprocess, readings); ok {
			readings = []float64{v}
		}
	}
	var updates []Update
	if batch = msg.Take(&c.batches); batch != nil {
		updates = batch.Updates[:0]
	} else {
		updates = make([]Update, 0, len(def.Groups))
	}
	for _, g := range def.Groups {
		switch g.Granularity {
		case spec.GranTask, spec.GranWorkflow:
			// Workflow-level series derive from task-level values on the
			// server; both need the task reduction here.
			if g.Granularity == spec.GranWorkflow && def.HasGranularity(spec.GranTask) {
				continue // the task group below already ships the value
			}
			v, ok := stats.Reduce(taskReduction(def), readings)
			if !ok {
				continue
			}
			updates = append(updates, Update{
				Series: st.seriesFor(tg, def, spec.GranTask, ""),
				Value:  v, Step: step, GeneratedAt: genAt,
			})
		case spec.GranNodeTask, spec.GranNodeWorkflow:
			pl := c.workload.Placement(tg.Workflow, tg.Task)
			if pl == nil {
				continue
			}
			for node, vals := range groupByNode(readings, pl) {
				v, ok := stats.Reduce(g.Reduction, vals)
				if !ok {
					continue
				}
				updates = append(updates, Update{
					Series: st.seriesFor(tg, def, spec.GranNodeTask, node),
					Value:  v, Step: step, GeneratedAt: genAt,
				})
			}
		}
	}
	if len(updates) == 0 {
		if batch != nil {
			batch.recycle() // back to the list it was taken from
		}
		return nil, nan, inf
	}
	if batch == nil {
		batch = &Batch{lease: msg.NewLease(&c.batches)}
	}
	batch.Updates = dedupUpdates(updates)
	return batch, nan, inf
}

// sanitize drops NaN and ±Inf readings before preprocessing: one poisoned
// reading would otherwise contaminate every reduction downstream of it and
// sit in policy history windows for a full window length. Dropped samples
// are counted in dyflow_sensor_dropped_samples_total by reason, and
// returned. The input slice may alias a shared staged array, so filtering
// copies.
func (c *Client) sanitize(readings []float64) (clean []float64, nan, inf int64) {
	for _, v := range readings {
		switch {
		case math.IsNaN(v):
			nan++
		case math.IsInf(v, 0):
			inf++
		}
	}
	if nan+inf == 0 {
		return readings, 0, 0
	}
	clean = make([]float64, 0, len(readings)-int(nan+inf))
	for _, v := range readings {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean = append(clean, v)
		}
	}
	c.countDropped(nan, inf)
	return clean, nan, inf
}

// countDropped adds dropped readings to dyflow_sensor_dropped_samples_total.
func (c *Client) countDropped(nan, inf int64) {
	if nan > 0 {
		c.mDropped.With("nan").Add(nan)
	}
	if inf > 0 {
		c.mDropped.With("inf").Add(inf)
	}
}

// taskReduction picks the reduction op declared for task granularity,
// falling back to the first group's op.
func taskReduction(def *spec.SensorDef) stats.Op {
	for _, g := range def.Groups {
		if g.Granularity == spec.GranTask {
			return g.Reduction
		}
	}
	return def.Groups[0].Reduction
}

// groupByNode splits per-rank readings by hosting node under block
// placement. A single (preprocessed or file-derived) reading is attributed
// to every node the task occupies.
func groupByNode(readings []float64, pl task.Placement) map[string][]float64 {
	out := make(map[string][]float64)
	if len(readings) == 1 && pl.Procs() != 1 {
		for _, node := range pl.Nodes() {
			out[string(node)] = []float64{readings[0]}
		}
		return out
	}
	for rank, v := range readings {
		node := string(pl.RankNode(rank))
		if node == "" {
			node = "unplaced"
		}
		out[node] = append(out[node], v)
	}
	return out
}

// dedupUpdates collapses duplicate series entries in place, keeping the
// last value at the first one's position.
func dedupUpdates(updates []Update) []Update {
	out := updates[:0]
next:
	for _, u := range updates {
		for i := range out {
			if out[i].Series == u.Series {
				out[i] = u
				continue next
			}
		}
		out = append(out, u)
	}
	return out
}
