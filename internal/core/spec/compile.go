package spec

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dyflow/internal/fsim"
	"dyflow/internal/stats"
)

// DefaultFrequency is the policy evaluation frequency used when a policy
// omits <frequency>.
const DefaultFrequency = 5 * time.Second

// GroupDef is one compiled granularity/reduction pair.
type GroupDef struct {
	Granularity Granularity
	Reduction   stats.Op
}

// JoinDef is a compiled sensor join.
type JoinDef struct {
	SensorID string
	Op       JoinOp
	// Granularity, when non-nil, joins against the other sensor's series
	// at this granularity instead of the metric's own.
	Granularity *Granularity
}

// SensorDef is a compiled sensor definition.
type SensorDef struct {
	ID         string
	Source     SourceType
	Preprocess *stats.Op // reduction over per-rank arrays, nil = none
	Groups     []GroupDef
	Join       *JoinDef
}

// HasGranularity reports whether the sensor produces a metric at g.
func (sd *SensorDef) HasGranularity(g Granularity) bool {
	for _, gr := range sd.Groups {
		if gr.Granularity == g {
			return true
		}
	}
	return false
}

// SensorUse configures a sensor for one monitored task.
type SensorUse struct {
	SensorID string
	// Info names the variable a DISKSCAN, ERRORSTATUS or DB source reads
	// (e.g. "step", "exitcode"); a streamed source reads the record's
	// per-rank array and ignores it.
	Info string
}

// MonitorTarget binds sensors to one monitored workflow task.
type MonitorTarget struct {
	Workflow   string
	Task       string
	InfoSource string // stream name, file path, or glob pattern
	Sensors    []SensorUse
}

// SensorRef references a sensor output at a granularity from a policy.
type SensorRef struct {
	SensorID    string
	Granularity Granularity
}

// HistoryDef is a compiled policy history window.
type HistoryDef struct {
	Window int
	Op     stats.Op
}

// PolicyDef is a compiled policy definition.
type PolicyDef struct {
	ID        string
	Eval      CompareOp
	Threshold float64
	Sensors   []SensorRef
	Action    Action
	History   *HistoryDef
	Frequency time.Duration
}

// PolicyBinding applies a policy to a workflow task.
type PolicyBinding struct {
	Workflow   string
	PolicyID   string
	AssessTask string
	ActOnTasks []string
	Params     map[string]string
}

// IntParam returns an integer binding parameter with a default.
func (b *PolicyBinding) IntParam(key string, def int) int {
	if v, ok := b.Params[key]; ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
			return n
		}
	}
	return def
}

// TaskDep is a compiled task dependency.
type TaskDep struct {
	Task   string
	Parent string
	Type   DepType
}

// WorkflowRules holds one workflow's arbitration rules.
type WorkflowRules struct {
	TaskPriorities   map[string]int // 0 = highest; missing = lowest
	PolicyPriorities map[string]int
	Deps             []TaskDep
}

// TaskPriority returns the task's priority, defaulting to the lowest
// (a large number) when unset.
func (r *WorkflowRules) TaskPriority(task string) int {
	if r == nil {
		return UnsetPriority
	}
	if p, ok := r.TaskPriorities[task]; ok {
		return p
	}
	return UnsetPriority
}

// PolicyPriority returns the policy's priority, defaulting to the lowest.
func (r *WorkflowRules) PolicyPriority(policy string) int {
	if r == nil {
		return UnsetPriority
	}
	if p, ok := r.PolicyPriorities[policy]; ok {
		return p
	}
	return UnsetPriority
}

// AppendDependents appends to dst the tasks directly depending on parent
// with the given type filter (pass nil for any type), in rule order, and
// returns the extended slice; a caller that reuses dst allocates nothing.
func (r *WorkflowRules) AppendDependents(dst []string, parent string, filter *DepType) []string {
	if r == nil {
		return dst
	}
	for _, d := range r.Deps {
		if d.Parent != parent {
			continue
		}
		if filter != nil && d.Type != *filter {
			continue
		}
		dst = append(dst, d.Task)
	}
	return dst
}

// UnsetPriority is the effective priority of tasks/policies without an
// explicit rule (lower number = higher priority).
const UnsetPriority = 1 << 20

// Config is the compiled orchestration specification.
type Config struct {
	Sensors  map[string]*SensorDef
	Targets  []MonitorTarget
	Policies map[string]*PolicyDef
	Bindings []PolicyBinding
	Rules    map[string]*WorkflowRules
}

// errorList accumulates validation problems so users see all of them at
// once.
type errorList []string

func (e *errorList) addf(format string, args ...any) { *e = append(*e, fmt.Sprintf(format, args...)) }

func (e errorList) err() error {
	if len(e) == 0 {
		return nil
	}
	return fmt.Errorf("spec: %d problem(s):\n  - %s", len(e), strings.Join(e, "\n  - "))
}

// Compile validates the document and resolves it into a Config. All
// problems are reported together. A <use-sensor>'s <parameter> children are
// accepted and ignored: nothing reads them, and the document compiles to
// the Config it would without them.
func Compile(doc *Document) (*Config, error) {
	var errs errorList
	cfg := &Config{
		Sensors:  make(map[string]*SensorDef),
		Policies: make(map[string]*PolicyDef),
		Rules:    make(map[string]*WorkflowRules),
	}

	if doc.Monitor == nil {
		errs.addf("missing <monitor> section")
	} else {
		compileSensors(doc.Monitor, cfg, &errs)
		compileTargets(doc.Monitor, cfg, &errs)
	}
	if doc.Decision == nil {
		errs.addf("missing <decision> section")
	} else {
		compilePolicies(doc.Decision, cfg, &errs)
		compileBindings(doc.Decision, cfg, &errs)
	}
	if doc.Arbitration != nil {
		compileRules(doc.Arbitration, cfg, &errs)
	}
	if err := errs.err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// CompileString parses and compiles a document in one step.
func CompileString(s string) (*Config, error) {
	doc, err := ParseString(s)
	if err != nil {
		return nil, err
	}
	return Compile(doc)
}

func compileSensors(m *MonitorX, cfg *Config, errs *errorList) {
	for _, sx := range m.Sensors {
		if sx.ID == "" {
			errs.addf("sensor without id")
			continue
		}
		if _, dup := cfg.Sensors[sx.ID]; dup {
			errs.addf("duplicate sensor id %q", sx.ID)
			continue
		}
		sd := &SensorDef{ID: sx.ID}
		var err error
		if sd.Source, err = ParseSourceType(sx.Type); err != nil {
			errs.addf("sensor %q: %v", sx.ID, err)
		}
		if sx.Preprocess != nil {
			op, err := stats.ParseOp(sx.Preprocess.Operation)
			if err != nil {
				errs.addf("sensor %q preprocess: %v", sx.ID, err)
			} else {
				sd.Preprocess = &op
			}
		}
		if len(sx.Groups) == 0 {
			errs.addf("sensor %q: at least one <group> is required", sx.ID)
		}
		for _, gx := range sx.Groups {
			g, err := ParseGranularity(gx.Granularity)
			if err != nil {
				errs.addf("sensor %q: %v", sx.ID, err)
				continue
			}
			op, err := stats.ParseOp(gx.Reduction)
			if err != nil {
				errs.addf("sensor %q group %s: %v", sx.ID, gx.Granularity, err)
				continue
			}
			sd.Groups = append(sd.Groups, GroupDef{Granularity: g, Reduction: op})
		}
		if sx.Join != nil {
			op, err := ParseJoinOp(sx.Join.Operation)
			if err != nil {
				errs.addf("sensor %q join: %v", sx.ID, err)
			} else {
				jd := &JoinDef{SensorID: sx.Join.SensorID, Op: op}
				if sx.Join.Granularity != "" {
					g, err := ParseGranularity(sx.Join.Granularity)
					if err != nil {
						errs.addf("sensor %q join: %v", sx.ID, err)
					} else {
						jd.Granularity = &g
					}
				}
				sd.Join = jd
			}
		}
		cfg.Sensors[sx.ID] = sd
	}
	// Join targets must exist.
	for _, sd := range cfg.Sensors {
		if sd.Join != nil {
			if _, ok := cfg.Sensors[sd.Join.SensorID]; !ok {
				errs.addf("sensor %q joins unknown sensor %q", sd.ID, sd.Join.SensorID)
			}
		}
	}
}

func compileTargets(m *MonitorX, cfg *Config, errs *errorList) {
	for _, mt := range m.MonitorTasks {
		if mt.Name == "" || mt.WorkflowID == "" {
			errs.addf("monitor-task needs name and workflowId (got name=%q workflowId=%q)", mt.Name, mt.WorkflowID)
			continue
		}
		target := MonitorTarget{
			Workflow:   mt.WorkflowID,
			Task:       mt.Name,
			InfoSource: mt.InfoSource,
		}
		for _, us := range mt.UseSensors {
			sd, ok := cfg.Sensors[us.SensorID]
			if !ok {
				errs.addf("monitor-task %q uses unknown sensor %q", mt.Name, us.SensorID)
				continue
			}
			// A disk scan globs its info-source; a malformed pattern would
			// match nothing forever and the policy would silently never fire.
			if sd.Source == SourceDiskScan {
				if _, err := fsim.Compile(mt.InfoSource); err != nil {
					errs.addf("monitor-task %q: sensor %q info-source: %v", mt.Name, us.SensorID, err)
					continue
				}
			}
			target.Sensors = append(target.Sensors, SensorUse{SensorID: us.SensorID, Info: us.Info})
		}
		cfg.Targets = append(cfg.Targets, target)
	}
}

func compilePolicies(d *DecisionX, cfg *Config, errs *errorList) {
	for _, px := range d.Policies {
		if px.ID == "" {
			errs.addf("policy without id")
			continue
		}
		if _, dup := cfg.Policies[px.ID]; dup {
			errs.addf("duplicate policy id %q", px.ID)
			continue
		}
		pd := &PolicyDef{ID: px.ID, Frequency: DefaultFrequency}
		if px.Eval == nil {
			errs.addf("policy %q: missing <eval>", px.ID)
		} else {
			op, err := ParseCompareOp(px.Eval.Operation)
			if err != nil {
				errs.addf("policy %q: %v", px.ID, err)
			}
			pd.Eval = op
			pd.Threshold = px.Eval.Threshold
		}
		if len(px.Sensors) == 0 {
			errs.addf("policy %q: at least one <use-sensor> is required", px.ID)
		}
		for _, ur := range px.Sensors {
			g, err := ParseGranularity(ur.Granularity)
			if err != nil {
				errs.addf("policy %q: %v", px.ID, err)
				continue
			}
			sd, ok := cfg.Sensors[ur.ID]
			if !ok {
				errs.addf("policy %q uses unknown sensor %q", px.ID, ur.ID)
				continue
			}
			if !sd.HasGranularity(g) {
				errs.addf("policy %q: sensor %q has no %q group", px.ID, ur.ID, g)
				continue
			}
			pd.Sensors = append(pd.Sensors, SensorRef{SensorID: ur.ID, Granularity: g})
		}
		act, err := ParseAction(px.Action)
		if err != nil {
			errs.addf("policy %q: %v", px.ID, err)
		}
		pd.Action = act
		if px.History != nil {
			if px.History.Window <= 0 {
				errs.addf("policy %q: history window must be positive", px.ID)
			} else {
				op, err := stats.ParseOp(px.History.Operation)
				if err != nil {
					errs.addf("policy %q history: %v", px.ID, err)
				} else {
					pd.History = &HistoryDef{Window: px.History.Window, Op: op}
				}
			}
		}
		if px.Frequency != nil {
			if px.Frequency.Seconds <= 0 {
				errs.addf("policy %q: frequency must be positive", px.ID)
			} else {
				pd.Frequency = time.Duration(px.Frequency.Seconds * float64(time.Second))
			}
		}
		cfg.Policies[px.ID] = pd
	}
}

func compileBindings(d *DecisionX, cfg *Config, errs *errorList) {
	for _, ao := range d.ApplyOns {
		if ao.WorkflowID == "" {
			errs.addf("apply-on without workflowId")
			continue
		}
		for _, ap := range ao.Policies {
			if _, ok := cfg.Policies[ap.PolicyID]; !ok {
				errs.addf("apply-policy references unknown policy %q", ap.PolicyID)
				continue
			}
			b := PolicyBinding{
				Workflow:   ao.WorkflowID,
				PolicyID:   ap.PolicyID,
				AssessTask: strings.TrimSpace(ap.AssessTask),
				Params:     make(map[string]string, len(ap.Params)),
			}
			for _, tok := range strings.FieldsFunc(ap.ActOnTasks, func(r rune) bool {
				return r == ',' || r == ' ' || r == '\n' || r == '\t'
			}) {
				b.ActOnTasks = append(b.ActOnTasks, tok)
			}
			if len(b.ActOnTasks) == 0 {
				errs.addf("apply-policy %q: empty <act-on-tasks>", ap.PolicyID)
			}
			for _, p := range ap.Params {
				b.Params[p.Key] = p.Value
			}
			// The arbiter reads a resize step and a START's size as process
			// counts through IntParam, which falls back to its default on
			// a parse error: a typo would silently become another size,
			// and a negative adjust-by would invert ADDCPU and RMCPU.
			for _, key := range [...]string{"adjust-by", "procs"} {
				v, ok := b.Params[key]
				if !ok {
					continue
				}
				if n, err := strconv.Atoi(strings.TrimSpace(v)); err != nil || n < 1 {
					errs.addf("apply-policy %q on workflow %q: %s %q is not an integer >= 1", ap.PolicyID, ao.WorkflowID, key, v)
				}
			}
			cfg.Bindings = append(cfg.Bindings, b)
		}
	}
}

func compileRules(a *ArbitrateX, cfg *Config, errs *errorList) {
	for _, rf := range a.Rules {
		if rf.WorkflowID == "" {
			errs.addf("rule-for without workflowId")
			continue
		}
		if _, dup := cfg.Rules[rf.WorkflowID]; dup {
			errs.addf("duplicate rule-for workflow %q", rf.WorkflowID)
			continue
		}
		r := &WorkflowRules{
			TaskPriorities:   make(map[string]int),
			PolicyPriorities: make(map[string]int),
		}
		for _, tp := range rf.TaskPriorities {
			r.TaskPriorities[tp.Name] = tp.Priority
		}
		for _, pp := range rf.PolicyPriorities {
			r.PolicyPriorities[pp.Name] = pp.Priority
		}
		for _, td := range rf.TaskDeps {
			dt, err := ParseDepType(td.Type)
			if err != nil {
				errs.addf("rule-for %q: %v", rf.WorkflowID, err)
				continue
			}
			if td.Name == "" || td.Parent == "" {
				errs.addf("rule-for %q: task-dep needs name and parent", rf.WorkflowID)
				continue
			}
			r.Deps = append(r.Deps, TaskDep{Task: td.Name, Parent: td.Parent, Type: dt})
		}
		cfg.Rules[rf.WorkflowID] = r
	}
}
