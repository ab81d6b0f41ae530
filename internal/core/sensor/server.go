package sensor

import (
	"slices"
	"strings"

	"dyflow/internal/core/spec"
	"dyflow/internal/msg"
	"dyflow/internal/sim"
	"dyflow/internal/stats"
	"dyflow/internal/trace"
)

// Server is the Monitor stage's server half. It runs "on the launch node":
// it receives update batches from the clients, derives the cross-task
// granularities (workflow and node-workflow), applies sensor joins, and
// forwards metric values to the Decision stage endpoint. The paper's server
// also filters out-of-order messages; the bus delivers in send order, so
// this one takes every batch as it comes.
type Server struct {
	env *sim.Sim
	ep  *msg.Endpoint
	out string // decision endpoint name
	cfg *spec.Config

	// series holds every metric series' state; groups indexes the task and
	// node-task series the cross-task granularities reduce, so a derivation
	// reads its contributors instead of walking every series.
	series map[Key]*series
	groups map[groupKey]*group

	// Scratch reused by every process call: the metrics forwarded, their
	// series, and a derivation's values.
	fwd     []Metric
	fwdS    []*series
	scratch []float64

	// lists are the released forward lists payload reuses (payload.go).
	lists []*MetricList

	proc      *sim.Proc
	onForward func([]Metric)
	tr        *trace.Recorder
	spawn     func(name string, fn func(*sim.Proc)) *sim.Proc
	// The stage counters on tr, resolved once.
	nForwarded, nRepolled *trace.StageCounter
}

// series is one metric series' server-side state.
type series struct {
	desc *Series // the series' descriptor, numbered by lookup
	m    Metric  // latest value (valid when hasM)
	hasM bool
	// gen is the generation time of the series' last detection (valid when
	// hasGen): a metric carrying it again is a stale re-poll.
	gen    sim.Time
	hasGen bool
	group  *group // a task or node-task series' derivation group
}

// groupKey names the series one derivation reduces: a workflow's task
// series of one sensor (node empty), or its node-task series on one node.
type groupKey struct {
	workflow, sensor string
	gran             spec.Granularity
	node             string
}

// group is one derivation's contributors, sorted by task name — the order
// the reduction folds them in — and the series it derives.
type group struct {
	members []*series
	derived *series
}

// NewServer creates the Monitor server reading from its own endpoint and
// forwarding metric batches to the out endpoint; spawn starts its process
// (the orchestrator's supervisor hands in a panic-guarded spawner). It
// records stage counters and per-sensor lag samples on tr, the only store
// of both: monitor.forwarded counts fresh detections (metrics carrying a new
// generation time) and monitor.repolled the stale re-polls of unchanged
// data that still travel on the wire.
func NewServer(s *sim.Sim, spawn func(name string, fn func(*sim.Proc)) *sim.Proc, bus *msg.Bus, name, out string, cfg *spec.Config, tr *trace.Recorder) *Server {
	return &Server{
		env:    s,
		spawn:  spawn,
		ep:     bus.Endpoint(name),
		out:    out,
		cfg:    cfg,
		tr:     tr,
		series: make(map[Key]*series),
		groups: make(map[groupKey]*group),

		nForwarded: tr.StageCounter("monitor.forwarded"),
		nRepolled:  tr.StageCounter("monitor.repolled"),
	}
}

// OnForward registers an observer for every metric batch forwarded to the
// Decision stage. The experiment harness's recorder registers here once a
// reader has declared a series it will read ("as Decision receives them",
// Figure 9), and keeps only those; a world with no such reader registers
// nothing. The slice is the server's scratch: it is valid only during the
// call, so fn copies what it keeps.
func (sv *Server) OnForward(fn func([]Metric)) { sv.onForward = fn }

// Latest returns the most recent metric for a series (ok=false if none).
func (sv *Server) Latest(k Key) (Metric, bool) {
	if s := sv.series[k]; s != nil && s.hasM {
		return s.m, true
	}
	return Metric{}, false
}

// Start spawns the server process.
func (sv *Server) Start() {
	sv.proc = sv.spawn("monitor-server", sv.run)
}

// Stop interrupts the server process.
func (sv *Server) Stop() {
	if sv.proc != nil {
		sv.proc.Interrupt(nil)
	}
}

func (sv *Server) run(p *sim.Proc) {
	// Drain every same-instant delivery in one wake (run-to-completion):
	// a burst of client batches costs one kernel→proc handoff.
	var buf []msg.Envelope
	for {
		batch, err := sv.ep.RecvBatch(p, buf[:0])
		if err != nil {
			return
		}
		buf = batch
		for i := range batch {
			b, err := msg.Payload[*Batch](&batch[i])
			if err != nil {
				continue
			}
			sv.process(b)
			b.Release()
		}
	}
}

// process ingests one batch and forwards the resulting metrics.
func (sv *Server) process(batch *Batch) {
	now := sv.env.Now()
	out, outS := sv.fwd[:0], sv.fwdS[:0]

	for _, u := range batch.Updates {
		k := u.Series.Key
		def := sv.cfg.Sensors[k.Sensor]
		if def == nil {
			continue
		}
		g := k.Granularity
		s := sv.lookup(k)
		m := Metric{
			Key:         k,
			Series:      s.desc,
			Value:       u.Value,
			Step:        u.Step,
			GeneratedAt: sim.Time(u.GeneratedAt),
			ObservedAt:  now,
		}
		m = sv.applyJoin(def, m)
		sv.record(s, m)
		if def.HasGranularity(g) {
			out, outS = append(out, m), append(outS, s)
		}

		// Derive cross-task granularities declared on the sensor.
		for _, grp := range def.Groups {
			if grp.Granularity == spec.GranWorkflow && g == spec.GranTask ||
				grp.Granularity == spec.GranNodeWorkflow && g == spec.GranNodeTask {
				if dm, ds, ok := sv.derive(s, grp.Reduction); ok {
					sv.record(ds, dm)
					out, outS = append(out, dm), append(outS, ds)
				}
			}
		}
	}
	sv.fwd, sv.fwdS = out, outS
	if len(out) == 0 {
		return
	}
	detections := 0
	for i, m := range out {
		s := outS[i]
		if s.hasGen && s.gen == m.GeneratedAt {
			// Stale re-poll: not a detection event, for the forwarded
			// counter exactly as for the lag accounting.
			continue
		}
		detections++
		s.gen, s.hasGen = m.GeneratedAt, true
		if m.ObservedAt >= m.GeneratedAt {
			sv.tr.SensorLag(m.Key.Sensor, m.ObservedAt-m.GeneratedAt)
		}
	}
	sv.nForwarded.Add(int64(detections))
	sv.nRepolled.Add(int64(len(out) - detections))
	if sv.onForward != nil {
		sv.onForward(out)
	}
	if l := sv.payload(out); sv.ep.Send(sv.out, l) == nil {
		l.lease.Hold()
	}
}

// payload returns the wire form of a forward list: a list off the
// server's free list, or a new one when the list is empty, filled with
// out. A message names its series by the server's descriptor. The wire
// carries no ObservedAt: Decision takes it from the envelope's SentAt,
// which is the instant the server stamps every metric with.
func (sv *Server) payload(out []Metric) *MetricList {
	l := msg.Take(&sv.lists)
	if l == nil {
		l = &MetricList{lease: msg.NewLease(&sv.lists)}
	}
	l.Msgs = slices.Grow(l.Msgs[:0], len(out))
	for i := range out {
		l.Msgs = append(l.Msgs, out[i].ToMsg())
	}
	return l
}

// lookup returns the series for k, creating an empty one, with the next
// descriptor, on first use.
func (sv *Server) lookup(k Key) *series {
	s := sv.series[k]
	if s == nil {
		s = &series{desc: &Series{ID: uint32(len(sv.series)) + 1, Key: k}}
		sv.series[k] = s
	}
	return s
}

// record makes m the series' latest value. A task or node-task series
// joins its derivation group the first time it holds one.
func (sv *Server) record(s *series, m Metric) {
	s.m = m
	if !s.hasM {
		s.hasM = true
		sv.index(s)
	}
}

// index files a series that now holds a value into its derivation group,
// if its granularity has one, keeping the members in (task, node) order.
func (sv *Server) index(s *series) {
	k := s.m.Key
	if k.Granularity != spec.GranTask && k.Granularity != spec.GranNodeTask {
		return
	}
	gk := groupKey{k.Workflow, k.Sensor, k.Granularity, ""}
	if k.Granularity == spec.GranNodeTask {
		gk.node = k.Node
	}
	g := sv.groups[gk]
	if g == nil {
		g = &group{}
		sv.groups[gk] = g
	}
	i, _ := slices.BinarySearchFunc(g.members, k, func(e *series, k Key) int {
		if c := strings.Compare(e.m.Key.Task, k.Task); c != 0 {
			return c
		}
		return strings.Compare(e.m.Key.Node, k.Node)
	})
	g.members = slices.Insert(g.members, i, s)
	s.group = g
}

// applyJoin combines the metric with the joined sensor's latest value. By
// default the join matches the same workflow/task/granularity/node key; a
// join granularity override matches the other sensor's series at that
// granularity instead (workflow-level series carry no task or node).
func (sv *Server) applyJoin(def *spec.SensorDef, m Metric) Metric {
	if def.Join == nil {
		return m
	}
	ok := Key{
		Workflow:    m.Key.Workflow,
		Task:        m.Key.Task,
		Sensor:      def.Join.SensorID,
		Granularity: m.Key.Granularity,
		Node:        m.Key.Node,
	}
	if def.Join.Granularity != nil {
		ok.Granularity = *def.Join.Granularity
		switch ok.Granularity {
		case spec.GranWorkflow:
			ok.Task, ok.Node = "", ""
		case spec.GranNodeWorkflow:
			ok.Task = ""
		}
	}
	other, found := sv.Latest(ok)
	if !found {
		return m
	}
	m.Value = def.Join.Op.Apply(m.Value, other.Value)
	return m
}

// derive reduces the latest values of the trigger series' group, in task
// order, into the workflow series (from a task series) or the node's
// node-workflow series (from a node-task series). The trigger's sensor is
// the derived series' sensor: the server looks the definition up by it.
func (sv *Server) derive(trigger *series, op stats.Op) (Metric, *series, bool) {
	g, t := trigger.group, trigger.m
	vals := sv.scratch[:0]
	maxStep := 0
	var genAt sim.Time
	for _, s := range g.members {
		vals = append(vals, s.m.Value)
		if s.m.Step > maxStep {
			maxStep = s.m.Step
		}
		// The derived metric is as fresh as the freshest contributor; a
		// stale re-poll of one task must not stamp the front old.
		if s.m.GeneratedAt > genAt {
			genAt = s.m.GeneratedAt
		}
	}
	sv.scratch = vals
	v, ok := stats.Reduce(op, vals)
	if !ok {
		return Metric{}, nil, false
	}
	dm := Metric{
		Key: Key{
			Workflow:    t.Key.Workflow,
			Sensor:      t.Key.Sensor,
			Granularity: spec.GranWorkflow,
		},
		Value:       v,
		Step:        maxStep,
		GeneratedAt: genAt,
		ObservedAt:  t.ObservedAt,
	}
	if t.Key.Granularity == spec.GranNodeTask {
		// A node's front carries the trigger's step, not the maximum.
		dm.Key.Granularity, dm.Key.Node, dm.Step = spec.GranNodeWorkflow, t.Key.Node, t.Step
	}
	if g.derived == nil {
		g.derived = sv.lookup(dm.Key)
	}
	dm.Series = g.derived.desc
	return dm, g.derived, true
}
