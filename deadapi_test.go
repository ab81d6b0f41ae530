package dyflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
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
	walkSources(t, fset, parser.SkipObjectResolution, func(path, dir string, f *ast.File) {
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
// and cmd/ included, testdata and dot directories not — in mode and calls
// fn with its path, its directory relative to the module root and its
// syntax.
func walkSources(t *testing.T, fset *token.FileSet, mode parser.Mode, fn func(path, dir string, f *ast.File)) {
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
		f, err := parser.ParseFile(fset, path, nil, mode)
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

// knobSeams lists the struct fields that non-test code reads and only
// tests write, as "dir.Type.Field", each with the reason it stays.
var knobSeams = map[string]string{
	"internal/msg.Bus.Latency":                        "the reordering tests delay deliveries through it to put batches out of order",
	"internal/server/fleet.WorkerOptions.CallTimeout": "the fleet tests shorten the per-RPC deadline to see a hung coordinator time out",
	"internal/server/fleet.WorkerOptions.OnClaim":     "the fleet and chaos tests kill or partition a worker at the moment it claims",
	"internal/core/arbiter.Config.NoVictims":          "the root ablation benchmarks switch victim selection off",
	"internal/core/arbiter.Config.ImmediateKill":      "the root ablation benchmarks switch the drain wait off",
	"internal/exp.Variant.Arbiter":                    "the root ablation benchmarks hand a world their arbiter config",
	"internal/task.Spec.PublishDBKey":                 "the only producer for the spec language's DB sensor source; no shipped scenario declares a DB sensor yet",
}

// TestKnobsHaveNonTestWriters keeps every setting the program reads
// settable by the program: a struct field that non-test code reads but
// only _test.go files (or nothing) write is a knob no scenario, command
// or service path can turn, so it is a constant in disguise. The scan
// type-checks every non-test file of the repository — bench/ and cmd/
// included — and counts as a write an assignment, ++/--, a composite
// literal key (or an unkeyed literal), taking the address, and calling
// a pointer method on the field. Fields with a struct tag (written by a
// decoder), sync or sync/atomic fields and the exemptDirs packages are
// not knobs.
func TestKnobsHaveNonTestWriters(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	walkSources(t, fset, parser.SkipObjectResolution, func(path, dir string, f *ast.File) {
		dirs[dir] = append(dirs[dir], f)
	})
	found, err := testOnlyFields(fset, "dyflow", dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(found) {
		if knobSeams[key] == "" {
			t.Errorf("read, but only tests write it: %s (%s)", key, fset.Position(found[key]))
		}
	}
	for key := range knobSeams {
		if !found[key].IsValid() {
			t.Errorf("knobSeams names %s, which is gone or has a non-test writer now", key)
		}
	}
}

// TestTestOnlyFieldsCatchesPlants runs the scan on a planted package:
// each field read but never written is found, each kind of write clears
// its field, and a tagged, a sync or an unread field is not reported.
func TestTestOnlyFieldsCatchesPlants(t *testing.T) {
	const src = `package p
import "sync"
type Opts struct {
	Knob, Set, Lit, Ptr, Inc, Meth, Sub int
	Pos  [2]int
	Arr  [4]byte
	Buf  buf
	Tag  int ` + "`json:\"tag\"`" + `
	mu   sync.Mutex
	Unread int
}
type buf struct{ n int }
func (b *buf) grow()        { b.n++ }
type pair struct{ A, B int }
func f(o *Opts) int {
	o.Set = 1
	_ = Opts{Lit: 2}
	p := &o.Ptr
	o.Inc++
	o.Buf.grow()
	o.Pos[0] = 3
	_ = o.Arr[:0]
	q := pair{1, 2}
	_ = o.mu
	return o.Knob + o.Set + o.Lit + *p + o.Inc + o.Meth + o.Sub + o.Pos[1] + o.Buf.n + o.Tag + q.A
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found, err := testOnlyFields(fset, "m", map[string][]*ast.File{"p": {f}})
	if err != nil {
		t.Fatal(err)
	}
	got := sortedKeys(found)
	if want := []string{"p.Opts.Knob", "p.Opts.Meth", "p.Opts.Sub"}; !slices.Equal(got, want) {
		t.Errorf("found %v, want %v", got, want)
	}
}

// testOnlyFields type-checks the packages in dirs (module-relative
// directory → its non-test files, under module path mod; every other
// import comes from the standard library's export data) and returns the
// fields some file reads and none writes, keyed "dir.Type.Field" with
// their declarations.
func testOnlyFields(fset *token.FileSet, mod string, dirs map[string][]*ast.File) (map[string]token.Pos, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	im := &moduleImporter{fset: fset, mod: mod, dirs: dirs, info: info,
		std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*types.Package{}}
	for _, dir := range sortedKeys(dirs) {
		if _, err := im.Import(im.path(dir)); err != nil {
			return nil, err
		}
	}

	// Name every field of a struct type the module declares; a field with
	// a tag is written by a decoder.
	keys, tagged := map[*types.Var]string{}, map[*types.Var]bool{}
	var name func(prefix string, st *types.Struct)
	name = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			keys[fv], tagged[fv] = prefix+"."+fv.Name(), st.Tag(i) != ""
			if inner, ok := fv.Type().(*types.Struct); ok {
				name(keys[fv], inner)
			}
		}
	}
	for id, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				name(im.dir(tn.Pkg().Path())+"."+id.Name, st)
			}
		}
	}

	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
	field := func(e ast.Expr) *types.Var {
		if se, ok := e.(*ast.SelectorExpr); ok {
			if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj().(*types.Var).Origin()
			}
		}
		return nil
	}
	// write marks the fields along an lvalue's selector chain written:
	// assigning o.A.B[i] changes B and the A that holds it.
	write := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if fv := field(x); fv != nil {
					written[fv] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, files := range dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						write(l)
					}
				case *ast.IncDecStmt:
					write(x.X)
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						write(x.Key)
						if x.Value != nil {
							write(x.Value)
						}
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						write(x.X)
					}
				case *ast.SliceExpr:
					if _, ok := info.Types[x.X].Type.Underlying().(*types.Array); ok {
						write(x.X) // slicing an array takes its address
					}
				case *ast.CompositeLit:
					t := info.Types[x].Type
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							written[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.SelectorExpr:
					if fv := field(x); fv != nil {
						read[fv] = true
						break
					}
					// A pointer method on an addressable operand takes its
					// address.
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
						_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
						_, ptrOperand := sel.Recv().Underlying().(*types.Pointer)
						if ptrRecv && !ptrOperand {
							write(x.X)
						}
					}
				}
				return true
			})
		}
	}

	found := map[string]token.Pos{}
	for fv := range read {
		key, ok := keys[fv]
		if !ok || written[fv] || tagged[fv] || exemptDirs[im.dir(fv.Pkg().Path())] {
			continue
		}
		if n, ok := types.Unalias(fv.Type()).(*types.Named); ok && n.Obj().Pkg() != nil {
			if p := n.Obj().Pkg().Path(); p == "sync" || p == "sync/atomic" {
				continue
			}
		}
		found[key] = fv.Pos()
	}
	return found, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// moduleImporter type-checks the module's packages from their parsed
// files, each once, so that a field has one object however many packages
// use it, and imports everything else from export data.
type moduleImporter struct {
	fset *token.FileSet
	mod  string
	dirs map[string][]*ast.File
	info *types.Info
	std  types.Importer
	pkgs map[string]*types.Package
}

// path is dir's import path; dir is its inverse.
func (m *moduleImporter) path(dir string) string {
	if dir == "." {
		return m.mod
	}
	return m.mod + "/" + dir
}

func (m *moduleImporter) dir(path string) string {
	if path == m.mod {
		return "."
	}
	return strings.TrimPrefix(path, m.mod+"/")
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := m.dirs[m.dir(path)]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}
