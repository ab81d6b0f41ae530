package dyflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// worldDirs are the packages a simulated world runs in, with every package
// under internal/core: what a run computes must depend on its job and on
// nothing a process accumulated before it, since the result cache serves
// one run's bytes for every run with its job key.
var worldDirs = []string{
	"internal/sim", "internal/core", "internal/task", "internal/stream", "internal/wms", "internal/resmgr",
	"internal/apps", "internal/fsim", "internal/db", "internal/exp", "internal/msg", "internal/trace",
}

// TestWorldPackagesHoldNoMutableGlobals: no non-test file of a world
// package assigns or increments a package-level variable outside its
// declaration. A package-level counter that fed a span number or a series
// ID would carry one run's history into the next run in the process.
func TestWorldPackagesHoldNoMutableGlobals(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	walkSources(t, fset, 0, func(path, dir string, f *ast.File) {
		if slices.Contains(worldDirs, dir) || strings.HasPrefix(dir, "internal/core/") {
			pkgs[dir] = append(pkgs[dir], f)
		}
	})
	for _, dir := range worldDirs {
		if pkgs[dir] == nil {
			t.Errorf("world package %s has no source", dir)
		}
	}
	for _, files := range pkgs {
		for _, pos := range globalWrites(files) {
			t.Errorf("%s: a world package writes a package-level variable", fset.Position(pos))
		}
	}
}

// TestGlobalWritesCatchesPlants runs the check on planted packages: each
// write to a package-level variable is found, wherever the variable is
// declared, and a local that shadows one is not.
func TestGlobalWritesCatchesPlants(t *testing.T) {
	const other = `package p
var total, names = 0, map[string]int{}
type box struct{ n int }
var b box`
	for src, want := range map[string]int{
		`package p; var n int; func f() { n++ }`:                                                   1,
		`package p; var n int; func f() { n = 2; n += 3 }`:                                         2,
		`package p; func f() { total++; names["x"] = 1; b.n = 4 }`:                                 3,
		`package p; var g = func() { total-- }`:                                                    1,
		`package p; func f() { go func() { total, _ = 1, 2 }() }`:                                  1,
		`package p; func f(total int) { total++ }`:                                                 0,
		`package p; func f() { total := 1; total++; for names := range 3 { names++ }; _ = total }`: 0,
		`package p; var n = 1; func f() { if n := 2; n > 1 { n++ } }`:                              0,
	} {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, s := range []string{src, other} {
			f, err := parser.ParseFile(fset, "p.go", s, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if got := len(globalWrites(files)); got != want {
			t.Errorf("%s: %d writes found, want %d", src, got, want)
		}
	}
}

// globalWrites returns where the files of one package, parsed with object
// resolution, assign or increment a package-level variable — a field or
// element of one included — outside its declaration. The parser resolves
// an identifier to its declaration within a file, locals and shadowing
// included; one it leaves unresolved names a package-level object of
// another file, a predeclared one or an import.
func globalWrites(files []*ast.File) []token.Pos {
	vars := map[string]bool{}          // the package-level variables, by name
	specs := map[*ast.ValueSpec]bool{} // and the specs declaring them
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, sp := range gd.Specs {
				vs := sp.(*ast.ValueSpec)
				specs[vs] = true
				for _, id := range vs.Names {
					vars[id.Name] = true
				}
			}
		}
	}
	global := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				if x.Obj == nil {
					return vars[x.Name]
				}
				vs, ok := x.Obj.Decl.(*ast.ValueSpec)
				return ok && specs[vs]
			default:
				return false
			}
		}
	}
	var writes []token.Pos
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range s.Lhs {
					if global(lhs) {
						writes = append(writes, lhs.Pos())
					}
				}
			case *ast.IncDecStmt:
				if global(s.X) {
					writes = append(writes, s.X.Pos())
				}
			}
			return true
		})
	}
	return writes
}
