package dyflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
	"dyflow/internal/msg"
	"dyflow/internal/obs"
	"dyflow/internal/trace"
)

// TestHotTypeSizes pins the size of each value the stages hand each other
// on every message or span, on a 64-bit platform: a field added to one is
// copied on every send, so adding it is a decision, made here.
func TestHotTypeSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are a 64-bit platform's")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"msg.Envelope", unsafe.Sizeof(msg.Envelope{}), 64},
		{"sensor.Update", unsafe.Sizeof(sensor.Update{}), 32},
		{"sensor.MetricMsg", unsafe.Sizeof(sensor.MetricMsg{}), 32},
		{"decision.Suggestion", unsafe.Sizeof(decision.Suggestion{}), 56},
		{"trace.Span", unsafe.Sizeof(trace.Span{}), 136},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestHotTypesHaveNoCodecs keeps the live types codec-free: what a value
// is encoded as is a record type of its own, converted at the one
// boundary that encodes it. No package under internal/core, nor
// internal/msg or internal/trace, declares a MarshalJSON or UnmarshalJSON
// method, and internal/msg does not import encoding/json.
func TestHotTypesHaveNoCodecs(t *testing.T) {
	hot := func(dir string) bool {
		return dir == "internal/core" || strings.HasPrefix(dir, "internal/core/") ||
			dir == "internal/msg" || dir == "internal/trace"
	}
	walkSources(t, token.NewFileSet(), parser.SkipObjectResolution, func(path, dir string, f *ast.File) {
		if !hot(dir) {
			return
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil &&
				(fn.Name.Name == "MarshalJSON" || fn.Name.Name == "UnmarshalJSON") {
				t.Errorf("%s: %s.%s is a JSON codec on a live type", path, recvName(fn.Recv.List[0].Type), fn.Name.Name)
			}
		}
		if dir != "internal/msg" {
			return
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/json" {
				t.Errorf("%s imports encoding/json", path)
			}
		}
	})
}

// TestInstrumentationIsWiredAtConstruction keeps instrumentation to one
// mode: a component gets its metrics registry or flight recorder as a
// constructor argument, so no package under internal/ declares a
// SetMetrics or SetTracer method, and trace.New takes the registry its
// recorder publishes into.
func TestInstrumentationIsWiredAtConstruction(t *testing.T) {
	walkSources(t, token.NewFileSet(), parser.SkipObjectResolution, func(path, dir string, f *ast.File) {
		if !strings.HasPrefix(dir, "internal/") {
			return
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil &&
				(fn.Name.Name == "SetMetrics" || fn.Name.Name == "SetTracer") {
				t.Errorf("%s: %s.%s attaches instrumentation after construction", path, recvName(fn.Recv.List[0].Type), fn.Name.Name)
			}
		}
	})
	if ft := reflect.TypeOf(trace.New); ft.NumIn() != 1 || ft.In(0) != reflect.TypeOf((*obs.Registry)(nil)) {
		t.Errorf("trace.New is %v, want it to take the *obs.Registry", ft)
	}
}
