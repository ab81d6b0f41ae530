package spec

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// The raw XML document model. Element and attribute names follow the
// paper's figures; see testdata and the examples/ directory for complete
// documents.

// Document is the root <dyflow> element.
type Document struct {
	XMLName     xml.Name    `xml:"dyflow"`
	Monitor     *MonitorX   `xml:"monitor"`
	Decision    *DecisionX  `xml:"decision"`
	Arbitration *ArbitrateX `xml:"arbitration"`
}

// MonitorX is the <monitor> section: sensor definitions plus the tasks to
// monitor with them (Figure 3).
type MonitorX struct {
	Sensors      []SensorX      `xml:"sensors>sensor"`
	MonitorTasks []MonitorTaskX `xml:"monitor-tasks>monitor-task"`
}

// SensorX defines one sensor (paper §2.1).
type SensorX struct {
	ID         string       `xml:"id,attr"`
	Type       string       `xml:"type,attr"`
	Preprocess *PreprocessX `xml:"preprocess"`
	Groups     []GroupX     `xml:"group-by>group"`
	Join       *JoinX       `xml:"join"`
}

// PreprocessX distills sizeable per-process inputs (e.g. a vector per rank)
// into one value per update before metric formulation.
type PreprocessX struct {
	Operation string `xml:"operation,attr"`
}

// GroupX is one granularity/reduction pair of a sensor's group-by.
type GroupX struct {
	Granularity string `xml:"granularity,attr"`
	Reduction   string `xml:"reduction-operation,attr"`
}

// JoinX combines this sensor's output with another sensor's. The optional
// granularity attribute joins against the other sensor's series at a
// different granularity (e.g. a task-level metric joined with the
// workflow-level front, yielding "how far behind the workflow is this
// task").
type JoinX struct {
	SensorID    string `xml:"sensor-id,attr"`
	Operation   string `xml:"operation,attr"`
	Granularity string `xml:"granularity,attr"`
}

// MonitorTaskX binds sensors to one workflow task.
type MonitorTaskX struct {
	Name       string       `xml:"name,attr"`
	WorkflowID string       `xml:"workflowId,attr"`
	InfoSource string       `xml:"info-source,attr"`
	UseSensors []UseSensorX `xml:"use-sensor"`
}

// UseSensorX configures one sensor for the monitored task: the variable to
// read. Its <parameter> children map to no field, so they are skipped.
type UseSensorX struct {
	SensorID string `xml:"sensor-id,attr"`
	Info     string `xml:"info,attr"`
}

// ParamX is an <action-params> key/value parameter.
type ParamX struct {
	Key   string `xml:"key,attr"`
	Value string `xml:"value,attr"`
}

// DecisionX is the <decision> section: policies plus the workflows/tasks
// they assess (Figure 4).
type DecisionX struct {
	Policies []PolicyX  `xml:"policies>policy"`
	ApplyOns []ApplyOnX `xml:"apply-on"`
}

// PolicyX defines one policy (paper §2.2).
type PolicyX struct {
	ID        string      `xml:"id,attr"`
	Eval      *EvalX      `xml:"eval"`
	Sensors   []UseRefX   `xml:"sensors-to-use>use-sensor"`
	Action    string      `xml:"action"`
	History   *HistoryX   `xml:"history"`
	Frequency *FrequencyX `xml:"frequency"`
}

// EvalX is the evaluation condition.
type EvalX struct {
	Operation string  `xml:"operation,attr"`
	Threshold float64 `xml:"threshold,attr"`
}

// UseRefX references a sensor output at a granularity.
type UseRefX struct {
	ID          string `xml:"id,attr"`
	Granularity string `xml:"granularity,attr"`
}

// HistoryX keeps a sliding window of sensor outputs with a pre-analysis
// operation.
type HistoryX struct {
	Window    int    `xml:"window,attr"`
	Operation string `xml:"operation,attr"`
}

// FrequencyX sets how often the evaluation condition triggers.
type FrequencyX struct {
	Seconds float64 `xml:"seconds,attr"`
}

// ApplyOnX applies policies to one workflow.
type ApplyOnX struct {
	WorkflowID string         `xml:"workflowId,attr"`
	Policies   []ApplyPolicyX `xml:"apply-policy"`
}

// ApplyPolicyX binds a policy to the task it assesses and the tasks its
// action applies to.
type ApplyPolicyX struct {
	PolicyID   string   `xml:"policyId,attr"`
	AssessTask string   `xml:"assess-task,attr"`
	ActOnTasks string   `xml:"act-on-tasks"`
	Params     []ParamX `xml:"action-params>param"`
}

// ArbitrateX is the <arbitration> section: per-workflow rules (Figure 5).
type ArbitrateX struct {
	Rules []RuleForX `xml:"rules>rule-for"`
}

// RuleForX holds one workflow's priorities and dependencies.
type RuleForX struct {
	WorkflowID       string            `xml:"workflowId,attr"`
	TaskPriorities   []TaskPriorityX   `xml:"task-priorities>task-priority"`
	PolicyPriorities []PolicyPriorityX `xml:"policy-priorities>policy-priority"`
	TaskDeps         []TaskDepX        `xml:"task-dependencies>task-dep"`
}

// TaskPriorityX assigns a task's priority (0 = highest).
type TaskPriorityX struct {
	Name     string `xml:"name,attr"`
	Priority int    `xml:"priority,attr"`
}

// PolicyPriorityX assigns a policy's priority (0 = highest).
type PolicyPriorityX struct {
	Name     string `xml:"name,attr"`
	Priority int    `xml:"priority,attr"`
}

// TaskDepX declares a task dependency on a parent task.
type TaskDepX struct {
	Name   string `xml:"name,attr"`
	Type   string `xml:"type,attr"`
	Parent string `xml:"parent,attr"`
}

// Parse decodes a DYFLOW XML document.
func Parse(r io.Reader) (*Document, error) {
	var doc Document
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	return &doc, nil
}

// ParseString decodes a DYFLOW XML document from a string.
func ParseString(s string) (*Document, error) { return Parse(strings.NewReader(s)) }
