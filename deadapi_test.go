package dyflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedForTests lists the exported functions and methods that may have
// no caller outside _test.go files, as "dir.Func" or "dir.Recv.Method" with
// dir relative to the module root, each with the reason it stays.
var exportedForTests = map[string]string{
	// Exempt: test drivers that feed a production code path, and the
	// kernel counts the goldens pin.
	"internal/core/arbiter.Engine.Arbitrate":      "runs one round on the production path without the engine process",
	"internal/core/arbiter.Engine.EnqueueWaiting": "seeds T_waiting the way a composed waiting task would",
	"internal/core/arbiter.BuildPlan":             "runs the engine's planner code on a fresh planner, one plan at a time",
	"internal/core.NewArbiterView":                "builds the orchestrator's arbiter view over a bare WMS",
	"internal/msg.UniformJitterLatency":           "feeds seeded jitter into the bus's delivery path",
	"internal/sim.Sim.Dispatched":                 "the goldens pin the kernel's event count",
	"internal/sim.Sim.Handoffs":                   "the goldens pin the kernel's goroutine handoffs",
	"internal/sim.Sim.RunUntilIdle":               "steps the kernel's event loop until no event is left; the run loops step to a horizon with Run",

	// Kept for now: deleting each takes a whole test with it.
	"internal/fsim.FS.Glob":                 "TestProperty_WorldClose_IsInert's view of the filesystem",
	"internal/stream.Registry.Names":        "TestProperty_WorldClose_IsInert's view of the staging streams",
	"internal/fsim.FS.RemoveGlob":           "TestRemoveGlob",
	"internal/trace.Span.Monotone":          "TestMonotoneDetectsRegression",
	"internal/wms.Savanna.SignalTask":       "TestSignalTask",
	"internal/wms.Savanna.ReleaseResources": "resmgr.ReleaseNodes, TestReleaseNodesGuard and TestReleaseNodesRejectsForeignNode",
}

// exemptDirs and exemptFiles are exempt as a whole: the fault-injecting
// transport and the load client, which exist for the drills in their own
// tests, and the root package's public facade.
var (
	exemptDirs = map[string]bool{
		"internal/server/faultnet": true,
		"internal/server/loadgen":  true,
	}
	exemptFiles = map[string]bool{
		"dyflow.go":      true,
		"experiments.go": true,
	}
)

// stdMethods are methods a standard-library interface calls, so their
// callers live outside the module.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "RoundTrip": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
}

// TestExportedFuncsHaveNonTestCallers keeps production code free of API
// that only tests call. Every exported function or method declared in a
// non-test file of the repository — bench/ and cmd/ included — must have
// its name appear in some non-test file outside its own declaration: as a
// call, a method value or an interface method. The scan goes by name, so
// a method shares the callers of every other method of that name; it
// still catches a name that nothing but a test uses.
func TestExportedFuncsHaveNonTestCallers(t *testing.T) {
	type decl struct {
		key        string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{} // identifier -> where it appears, declaration names excluded
	walkSources(t, fset, func(path, dir string, f *ast.File) {
		declNames := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !fn.Name.IsExported() || exemptDirs[dir] || exemptFiles[path] {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				if stdMethods[fn.Name.Name] {
					continue
				}
				key = dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key: key, start: fn.Pos(), end: fn.End()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	})

	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		used := false
		for _, p := range uses[name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if !used && exportedForTests[d.key] == "" {
			unused = append(unused, d.key+" ("+fset.Position(d.start).String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported, but only tests call it: %s", u)
	}
	for key := range exportedForTests {
		if !declared[key] {
			t.Errorf("exportedForTests names %s, which is not declared", key)
		}
	}
}

// walkSources parses every non-test Go file of the repository — bench/
// and cmd/ included, testdata and dot directories not — and calls fn with
// its path, its directory relative to the module root and its syntax.
func walkSources(t *testing.T, fset *token.FileSet, fn func(path, dir string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, filepath.ToSlash(filepath.Dir(path)), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recvName returns a method receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
