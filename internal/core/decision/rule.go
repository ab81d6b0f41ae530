package decision

import (
	"fmt"
	"maps"
	"slices"

	"dyflow/internal/core/spec"
	"dyflow/internal/trace"
)

// Rule is one policy binding's descriptor: the policy, the workflow and
// assess-task it is bound to, its action, the tasks it acts on and its
// parameters. The engine builds one per binding when it is built, and
// every suggestion the binding makes names it by pointer. A rule is
// immutable: it has no exported field, every part of it is read through
// an accessor, so nothing a suggestion reaches can change what that
// binding's other suggestions say.
type Rule struct {
	workflow   string
	policyID   string
	action     string
	assessTask string

	actOn  []string
	params map[string]string
}

// NewRule returns the descriptor of a binding, with its own copies of the
// act-on tasks and parameters.
func NewRule(workflow, policyID, action, assessTask string, actOnTasks []string, params map[string]string) *Rule {
	r := &Rule{
		workflow:   workflow,
		policyID:   policyID,
		action:     action,
		assessTask: assessTask,
		actOn:      append([]string(nil), actOnTasks...),
	}
	if params != nil {
		r.params = make(map[string]string, len(params))
		for k, v := range params {
			r.params[k] = v
		}
	}
	return r
}

// Workflow returns the workflow the binding belongs to.
func (r *Rule) Workflow() string { return r.workflow }

// PolicyID returns the bound policy's ID.
func (r *Rule) PolicyID() string { return r.policyID }

// AssessTask returns the task whose metrics the policy assesses.
func (r *Rule) AssessTask() string { return r.assessTask }

// NumActOnTasks returns how many tasks the rule acts on.
func (r *Rule) NumActOnTasks() int { return len(r.actOn) }

// ActOnTask returns the i-th task the rule acts on.
func (r *Rule) ActOnTask(i int) string { return r.actOn[i] }

// Param returns one of the rule's action parameters. Param and IntParam
// are nil-receiver safe — a nil rule has no parameters — since the
// arbiter's dependency-derived operations have no rule.
func (r *Rule) Param(key string) (string, bool) {
	if r == nil {
		return "", false
	}
	v, ok := r.params[key]
	return v, ok
}

// IntParam returns an integer action parameter, or def when the rule has
// no such parameter or it is not an integer.
func (r *Rule) IntParam(key string, def int) int {
	if r == nil {
		return def
	}
	b := spec.PolicyBinding{Params: r.params}
	return b.IntParam(key, def)
}

// ParsedAction returns the typed action.
func (r *Rule) ParsedAction() (spec.Action, error) { return spec.ParseAction(r.action) }

// Suggestion is one suggested high-level action (Decision -> Arbitration):
// the rule that fired, the suggestion's number and what it fired on. It
// is 56 bytes and copies nothing of its rule; its encoded form is
// SuggestionRecord.
type Suggestion struct {
	// Rule is the binding that fired. It is set on every suggestion the
	// engine makes or a record holds.
	Rule *Rule
	// Seq numbers the suggestion, 1, 2, 3, … in the order Decision made
	// them; it correlates the suggestion's lifecycle span across the
	// stages (see ID). 0 numbers none.
	Seq int
	// MetricValue is the (pre-analyzed) value that satisfied the condition.
	MetricValue float64
	// Step is the source timestep associated with the triggering metric.
	Step int
	// GeneratedAt is when the underlying data was produced; ObservedAt is
	// when the Monitor server forwarded the triggering metric; DecidedAt is
	// when the policy fired. Their differences plus transport are the
	// event-to-response-initiation lags of §4.6.
	GeneratedAt int64
	ObservedAt  int64
	DecidedAt   int64
}

// ID returns the suggestion's lifecycle-span ID, "workflow/policy#seq"
// (trace.SpanID). It is formatted on each call.
func (s Suggestion) ID() string { return trace.SpanID(s.Rule.workflow, s.Rule.policyID, s.Seq) }

// SuggestionRecord is a Suggestion's encoded form: its rule's fields and
// its ID beside the suggestion's values.
type SuggestionRecord struct {
	ID          string            `json:"id,omitempty"`
	Workflow    string            `json:"workflow"`
	PolicyID    string            `json:"policy"`
	Action      string            `json:"action"`
	AssessTask  string            `json:"assess_task"`
	ActOnTasks  []string          `json:"act_on_tasks"`
	Params      map[string]string `json:"params,omitempty"`
	MetricValue float64           `json:"metric_value"`
	Step        int               `json:"step,omitempty"`
	GeneratedAt int64             `json:"generated_at"`
	ObservedAt  int64             `json:"observed_at,omitempty"`
	DecidedAt   int64             `json:"decided_at"`
}

// Record returns the suggestion's record, sharing its rule's lists.
func (s Suggestion) Record() SuggestionRecord {
	r := s.Rule
	return SuggestionRecord{s.ID(), r.workflow, r.policyID, r.action, r.assessTask, r.actOn, r.params,
		s.MetricValue, s.Step, s.GeneratedAt, s.ObservedAt, s.DecidedAt}
}

// Live returns the suggestion a record holds, on a rule of its own (nil and
// empty lists kept apart), numbered by its ID. An ID that is not SpanID of
// its rule and that number is no suggestion's and is an error.
func (rec SuggestionRecord) Live() (Suggestion, error) {
	seq := trace.ParseSeq(rec.ID)
	if id := trace.SpanID(rec.Workflow, rec.PolicyID, seq); id != rec.ID {
		return Suggestion{}, fmt.Errorf("decision: suggestion ID %q is not %q", rec.ID, id)
	}
	r := &Rule{rec.Workflow, rec.PolicyID, rec.Action, rec.AssessTask, slices.Clone(rec.ActOnTasks), maps.Clone(rec.Params)}
	return Suggestion{r, seq, rec.MetricValue, rec.Step, rec.GeneratedAt, rec.ObservedAt, rec.DecidedAt}, nil
}
