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
	"sync"
	"testing"
)

// exportedForTests lists the functions and methods that no program in the
// repository reaches and that stay, as "dir.Func" or "dir.Recv.Method" with
// dir relative to the module root, each with the reason it stays.
var exportedForTests = map[string]string{
	// Exempt: test drivers that feed a production code path.
	"internal/core/arbiter.Engine.EnqueueWaiting": "seeds T_waiting the way a composed waiting task would",
	"internal/core/arbiter.BuildPlan":             "runs the engine's planner code on a fresh planner, one plan at a time",
	"internal/core.NewArbiterView":                "builds the orchestrator's arbiter view over a bare WMS",
	"internal/sim.Sim.RunUntilIdle":               "steps the kernel's event loop until no event is left; the run loops step to a horizon with Run",

	// The paper's signal and release low-level operations (§3.4), which
	// no shipped plugin issues yet.
	"internal/wms.Savanna.SignalTask":       "TestSignalTask",
	"internal/wms.Savanna.ReleaseResources": "resmgr.ReleaseNodes, TestReleaseNodesGuard and TestReleaseNodesRejectsForeignNode",

	// The allocation views the resource-conservation checks read; the
	// full get_resource_status view, their last production reader, went
	// once Actuation asked only for the unhealthy nodes, and a launch's
	// placement check reads the assignment in place (Manager.Short).
	"internal/resmgr.Manager.AllocatedNodes": "the allocation the resmgr, wms and chaos conservation checks sum over",
	"internal/resmgr.Manager.Free":           "the per-node free cores the resmgr property test compares with its reference manager",
	"internal/resmgr.Manager.Assigned":       "the per-owner copy the resmgr, wms and chaos checks read, and the clone-based placement check TestProperty_PlacementShort_EqualsClone holds Short to",

	// Kept for now: deleting each takes a whole test with it.
	"internal/fsim.FS.Glob":          "TestProperty_WorldClose_IsInert's view of the filesystem",
	"internal/stream.Registry.Names": "TestProperty_WorldClose_IsInert's view of the staging streams",
	"internal/trace.Span.Monotone":   "TestMonotoneDetectsRegression",
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
	"Read": true, "Write": true, "Close": true, "ReadFrom": true,
}

// TestEveryFuncHasAProductionCaller keeps production code free of code
// that only tests run: every function and method declared in a non-test
// file of the repository — bench/, cmd/ and examples/ included — must be
// reachable from a program's main or init, from the public facade in
// exemptFiles, or from exportedForTests. The scan goes by type, so a
// method is reached by a call or method value on its own receiver type,
// not by any method that shares its name.
func TestEveryFuncHasAProductionCaller(t *testing.T) {
	m := checkSources(t)
	found, stale := unreachableFuncs(m, exportedForTests)
	for _, key := range sortedKeys(found) {
		t.Errorf("no program reaches it: %s (%s)", key, m.fset.Position(found[key]))
	}
	for _, s := range stale {
		t.Errorf("exportedForTests names %s", s)
	}
}

// TestUnreachableFuncsCatchesPlants runs the reachability scan on planted
// packages: what main reaches through a call, a method value, a var
// initializer or an interface is live, and so are a String method and an
// allow-listed seam; a func that only calls itself and a method that
// only shares its name with a live one are found, and an allow-list entry
// that is reached or undeclared is stale.
func TestUnreachableFuncsCatchesPlants(t *testing.T) {
	const lib = `package p
type Runner interface{ Run() }
type T struct{}
func (T) M()             {}
func (T) Run()           {}
func (T) Bound()         {}
func (T) String() string { return "t" }
type U struct{}
func (U) M() {}
func (U) Run() {}
var handlers = map[string]func(){"x": viaVar}
func viaVar() {}
func A(r Runner) { b(); r.Run(); f := T{}.Bound; f(); handlers["x"]() }
func b()         { T{}.M() }
func loop(n int) int { return loop(n - 1) }
func Seam() {}`
	const prog = `package main
import "m/p"
func main() { p.A(p.T{}) }`
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	for dir, src := range map[string]string{"p": lib, "cmd": prog} {
		f, err := parser.ParseFile(fset, dir+".go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dirs[dir] = []*ast.File{f}
	}
	m, err := checkModule(fset, "m", dirs)
	if err != nil {
		t.Fatal(err)
	}
	found, stale := unreachableFuncs(m, map[string]string{"p.Seam": "a seam", "p.A": "reached", "p.Gone": "undeclared"})
	if got, want := sortedKeys(found), []string{"p.U.M", "p.loop"}; !slices.Equal(got, want) {
		t.Errorf("found %v, want %v", got, want)
	}
	if want := []string{"p.A, which a program reaches", "p.Gone, which is not declared"}; !slices.Equal(stale, want) {
		t.Errorf("stale %v, want %v", stale, want)
	}
}

// unreachableFuncs returns the functions and methods of m outside
// exemptDirs that no root reaches, keyed as in exportedForTests with their
// declarations, and the allow entries that are undeclared or reached
// without being roots. A function, method or package-level var reaches
// every object its declaration uses; the roots are every program's main
// and init, the declarations in exemptFiles, the allow entries, a method
// named in stdMethods and a method whose receiver implements a
// module-declared interface that has it.
func unreachableFuncs(m *moduleImporter, allow map[string]string) (map[string]token.Pos, []string) {
	uses := func(n ast.Node) (out []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch o := m.info.Uses[id].(type) {
				case *types.Func:
					out = append(out, o.Origin())
				case *types.Var:
					if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
						out = append(out, o)
					}
				}
			}
			return true
		})
		return out
	}
	edges := map[types.Object][]types.Object{}
	keys := map[string]*types.Func{}
	var roots []types.Object
	var methods []*types.Func
	var ifaces []*types.Interface
	for _, dir := range sortedKeys(m.dirs) {
		for _, f := range m.dirs[dir] {
			facade := exemptFiles[m.fset.File(f.Pos()).Name()]
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := m.info.Defs[d.Name].(*types.Func)
					edges[fn] = uses(d)
					if facade || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						roots = append(roots, fn)
					}
					if d.Recv != nil {
						methods = append(methods, fn)
					}
					if !exemptDirs[dir] {
						keys[funcKey(dir, fn)] = fn
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							used := uses(s)
							for _, id := range s.Names {
								if id.Name == "_" {
									roots = append(roots, used...)
									continue
								}
								v := m.info.Defs[id]
								edges[v] = used
								if facade {
									roots = append(roots, v)
								}
							}
						case *ast.TypeSpec:
							if it, ok := m.info.Defs[s.Name].Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
								ifaces = append(ifaces, it)
							}
						}
					}
				}
			}
		}
	}
	for _, fn := range methods {
		if stdMethods[fn.Name()] || implementsWith(fn, ifaces) {
			roots = append(roots, fn)
		}
	}

	reached := map[types.Object]bool{}
	reach := func(stack []types.Object) {
		for len(stack) > 0 {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reached[o] {
				reached[o] = true
				stack = append(stack, edges[o]...)
			}
		}
	}
	reach(roots)
	var stale []string
	var seams []types.Object
	for _, key := range sortedKeys(allow) {
		switch fn := keys[key]; {
		case fn == nil:
			stale = append(stale, key+", which is not declared")
		case reached[fn]:
			stale = append(stale, key+", which a program reaches")
		default:
			seams = append(seams, fn)
		}
	}
	reach(seams)
	found := map[string]token.Pos{}
	for key, fn := range keys {
		if !reached[fn] {
			found[key] = fn.Pos()
		}
	}
	return found, stale
}

// implementsWith reports whether method fn's receiver type implements one
// of ifaces that has a method of fn's name. A generic receiver is checked
// as instantiated with its own type parameters.
func implementsWith(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	var t types.Type = named
	if tps := named.TypeParams(); tps.Len() > 0 {
		args := make([]types.Type, tps.Len())
		for i := range args {
			args[i] = tps.At(i)
		}
		var err error
		if t, err = types.Instantiate(nil, named, args, false); err != nil {
			return false
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// funcKey is fn's exportedForTests key: "dir.Func" or "dir.Recv.Method".
func funcKey(dir string, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return dir + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return dir + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}

// sources is the one type-check of the repository's non-test files that
// the knob and reachability scans share.
var sources struct {
	once sync.Once
	m    *moduleImporter
	err  error
}

// checkSources type-checks every file walkSources reads, once per test
// binary, under module path dyflow.
func checkSources(t *testing.T) *moduleImporter {
	t.Helper()
	sources.once.Do(func() {
		fset := token.NewFileSet()
		dirs := map[string][]*ast.File{}
		if sources.err = parseSources(fset, parser.SkipObjectResolution, func(path, dir string, f *ast.File) {
			dirs[dir] = append(dirs[dir], f)
		}); sources.err == nil {
			sources.m, sources.err = checkModule(fset, "dyflow", dirs)
		}
	})
	if sources.err != nil {
		t.Fatal(sources.err)
	}
	return sources.m
}

// walkSources parses every non-test Go file of the repository — bench/
// and cmd/ included, testdata and dot directories not — in mode and calls
// fn with its path, its directory relative to the module root and its
// syntax.
func walkSources(t *testing.T, fset *token.FileSet, mode parser.Mode, fn func(path, dir string, f *ast.File)) {
	t.Helper()
	if err := parseSources(fset, mode, fn); err != nil {
		t.Fatal(err)
	}
}

// parseSources is walkSources returning the first error.
func parseSources(fset *token.FileSet, mode parser.Mode, fn func(path, dir string, f *ast.File)) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	"internal/server/fleet.WorkerOptions.CallTimeout":  "the fleet tests shorten the per-RPC deadline to see a hung coordinator time out",
	"internal/server/fleet.WorkerOptions.OnClaim":      "the fleet and chaos tests kill or partition a worker at the moment it claims",
	"internal/server/fleet.WorkerOptions.RegisterWait": "the network-fault drills give registration longer than its 10-second default to ride out injected faults",
	"internal/core/arbiter.Config.NoVictims":           "the root ablation benchmarks switch victim selection off",
	"internal/core/arbiter.Config.ImmediateKill":       "the root ablation benchmarks switch the drain wait off",
	"internal/exp.Variant.Arbiter":                     "the root ablation benchmarks hand a world their arbiter config",
	"internal/task.Spec.PublishDBKey":                  "the only producer for the spec language's DB sensor source; no shipped scenario declares a DB sensor yet",
}

// TestKnobsHaveNonTestWriters keeps every setting the program reads
// settable by the program: a struct field that non-test code reads but
// only _test.go files (or nothing) write is a knob no scenario, command
// or service path can turn, so it is a constant in disguise. The scan
// type-checks every non-test file of the repository — bench/ and cmd/
// included — and counts as a write an assignment, ++/--, a composite
// literal key (or an unkeyed literal), taking the address, and calling
// a pointer method on the field. An assignment to an exported field
// inside an if whose condition reads that field (if o.X <= 0 { o.X = d })
// fills in a default and is not a write. Fields with a struct tag
// (written by a decoder), sync or sync/atomic fields and the exemptDirs
// packages are not knobs.
func TestKnobsHaveNonTestWriters(t *testing.T) {
	m := checkSources(t)
	found := testOnlyFields(m)
	for _, key := range sortedKeys(found) {
		if knobSeams[key] == "" {
			t.Errorf("read, but only tests write it: %s (%s)", key, m.fset.Position(found[key]))
		}
	}
	for key := range knobSeams {
		if !found[key].IsValid() {
			t.Errorf("knobSeams names %s, which is gone or has a non-test writer now", key)
		}
	}
}

// TestTestOnlyFieldsCatchesPlants runs the scan on a planted package:
// each field read but never written is found, and so is an exported field
// only ever defaulted (assigned inside an if that reads it); each kind of
// write clears its field, an unexported field's default among them, and a
// tagged, a sync or an unread field is not reported.
func TestTestOnlyFieldsCatchesPlants(t *testing.T) {
	const src = `package p
import "sync"
type Opts struct {
	Knob, Set, Lit, Ptr, Inc, Meth, Sub int
	Def, Cond                           int
	def                                 int
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
	if o.Def <= 0 {
		o.Def = 5
	}
	if o.def == 0 {
		o.def = 6
	}
	if o.Knob > 0 {
		o.Cond = o.Knob
	}
	return o.Knob + o.Set + o.Lit + *p + o.Inc + o.Meth + o.Sub + o.Pos[1] + o.Buf.n + o.Tag + q.A + o.Def + o.def + o.Cond
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	m, err := checkModule(fset, "m", map[string][]*ast.File{"p": {f}})
	if err != nil {
		t.Fatal(err)
	}
	got := sortedKeys(testOnlyFields(m))
	if want := []string{"p.Opts.Def", "p.Opts.Knob", "p.Opts.Meth", "p.Opts.Sub"}; !slices.Equal(got, want) {
		t.Errorf("found %v, want %v", got, want)
	}
}

// readOnlyByTests lists the struct fields that non-test code writes and
// only tests read, as "dir.Type.Field", each with the reason it stays.
var readOnlyByTests = map[string]string{
	"internal/core/arbiter.Op.Policy":    "the plan property tests tell policy starts from T_waiting starts by it",
	"internal/runstore.Stats.Segments":   "the rotation tests count segments by it",
	"internal/exp.LAMMPSResult.Makespan": "the LAMMPS test pins EXPERIMENTS.md's makespan quote by it",
}

// TestEveryFieldHasAReader keeps production code free of state that only
// tests look at: every struct field declared in a non-test file outside
// exemptDirs and exemptFiles — bench/ and cmd/ included — must be read by
// some non-test file, or be in readOnlyByTests. A read is any selector use
// of the field except as the whole left side of = or :=; a composite
// literal key is a write. A tagged field (a codec reads it), an embedded
// field, and every field of a struct type used as a map key or compared
// with == or != count as read.
func TestEveryFieldHasAReader(t *testing.T) {
	m := checkSources(t)
	found := writeOnlyFields(m)
	for _, key := range sortedKeys(found) {
		if readOnlyByTests[key] == "" {
			t.Errorf("no non-test file reads it: %s (%s)", key, m.fset.Position(found[key]))
		}
	}
	for key := range readOnlyByTests {
		if !found[key].IsValid() {
			t.Errorf("readOnlyByTests names %s, which is gone or has a non-test reader now", key)
		}
	}
}

// TestWriteOnlyFieldsCatchesPlants runs the scan on a planted package: a
// field only ever assigned and a field only ever set by a composite
// literal are found; a field read through a selector, a compound
// assignment or an increment, a tagged field, an embedded field, and the
// fields of a map-key struct and of a struct compared with == are not.
func TestWriteOnlyFieldsCatchesPlants(t *testing.T) {
	const src = `package p
type Inner struct{ N int }
type Opts struct {
	Inner
	Set, Lit, Read, Add, Inc int
	Tag                      int ` + "`json:\"tag\"`" + `
	sub                      struct{ a, b int }
}
type key struct{ A, B int }
type pair struct{ X, Y int }
var seen = map[key]bool{}
func f(o *Opts, p, q pair) (int, bool) {
	o.Set = 1
	_ = Opts{Lit: 2, Tag: 3}
	o.Add += 4
	o.Inc++
	o.sub.a = 5
	seen[key{1, 2}] = true
	return o.Read + o.sub.b, p == q
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	m, err := checkModule(fset, "m", map[string][]*ast.File{"p": {f}})
	if err != nil {
		t.Fatal(err)
	}
	got := sortedKeys(writeOnlyFields(m))
	if want := []string{"p.Inner.N", "p.Opts.Lit", "p.Opts.Set", "p.Opts.sub.a"}; !slices.Equal(got, want) {
		t.Errorf("found %v, want %v", got, want)
	}
}

// writeOnlyFields returns the fields of m, outside exemptDirs and
// exemptFiles, that no file of m reads, keyed "dir.Type.Field" with their
// declarations.
func writeOnlyFields(m *moduleImporter) map[string]token.Pos {
	info := m.info
	keys, read := map[*types.Var]string{}, map[*types.Var]bool{}
	// readAll marks every field of a value of type t read: it is compared
	// as a whole, as a map key or by == and !=.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				fv := u.Field(i).Origin()
				read[fv] = true
				readAll(fv.Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	var name func(prefix string, st *types.Struct)
	name = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			keys[fv] = prefix + "." + fv.Name()
			if st.Tag(i) != "" || fv.Embedded() {
				read[fv] = true
			}
			if inner, ok := fv.Type().(*types.Struct); ok {
				name(keys[fv], inner)
			}
		}
	}
	for id, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				name(m.dir(tn.Pkg().Path())+"."+id.Name, st)
			}
		}
	}
	for _, tv := range info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(mt.Key())
		}
	}
	lhs := map[ast.Expr]bool{}
	for _, files := range m.dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if x.Tok == token.ASSIGN || x.Tok == token.DEFINE {
						for _, l := range x.Lhs {
							lhs[ast.Unparen(l)] = true
						}
					}
				case *ast.BinaryExpr:
					if x.Op == token.EQL || x.Op == token.NEQ {
						readAll(info.Types[x.X].Type)
						readAll(info.Types[x.Y].Type)
					}
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal && !lhs[x] {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}

	found := map[string]token.Pos{}
	for fv, key := range keys {
		if read[fv] || fv.Name() == "_" || exemptDirs[m.dir(fv.Pkg().Path())] || exemptFiles[m.fset.File(fv.Pos()).Name()] {
			continue
		}
		found[key] = fv.Pos()
	}
	return found
}

// checkModule type-checks the packages in dirs (module-relative directory
// → its non-test files, under module path mod; every other import comes
// from the standard library's export data).
func checkModule(fset *token.FileSet, mod string, dirs map[string][]*ast.File) (*moduleImporter, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	m := &moduleImporter{fset: fset, mod: mod, dirs: dirs, info: info,
		std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*types.Package{}}
	for _, dir := range sortedKeys(dirs) {
		if _, err := m.Import(m.path(dir)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// testOnlyFields returns the fields of m that some file reads and none
// writes, keyed "dir.Type.Field" with their declarations.
func testOnlyFields(m *moduleImporter) map[string]token.Pos {
	info := m.info
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
				name(m.dir(tn.Pkg().Path())+"."+id.Name, st)
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
	// defaults holds the left-hand sides that fill in a default: an
	// exported field assigned inside an if whose condition reads it. The
	// if is visited before its body, so each is marked before it is seen.
	defaults := map[ast.Expr]bool{}
	markDefaults := func(x *ast.IfStmt) {
		cond := map[*types.Var]bool{}
		ast.Inspect(x.Cond, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if fv := field(e); fv != nil && fv.Exported() {
					cond[fv] = true
				}
			}
			return true
		})
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if cond[field(ast.Unparen(l))] {
						defaults[l] = true
					}
				}
			}
			return true
		})
	}
	for _, files := range m.dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.IfStmt:
					markDefaults(x)
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						if defaults[l] {
							write(ast.Unparen(l).(*ast.SelectorExpr).X) // what holds the field is written
							continue
						}
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
		if !ok || written[fv] || tagged[fv] || exemptDirs[m.dir(fv.Pkg().Path())] {
			continue
		}
		if n, ok := types.Unalias(fv.Type()).(*types.Named); ok && n.Obj().Pkg() != nil {
			if p := n.Obj().Pkg().Path(); p == "sync" || p == "sync/atomic" {
				continue
			}
		}
		found[key] = fv.Pos()
	}
	return found
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
