package fsim

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dyflow/internal/sim"
)

// The reference implementations: Match and Glob exactly as they stood
// before the sorted index and the compiled pattern — split both strings,
// walk the whole file map, copy, sort — over files whose variables are a
// map, as they were before the flat list. Everything the package does now
// must be indistinguishable from these.

func refMatch(pattern, name string) (bool, error) {
	ps := strings.Split(pattern, "/")
	ns := strings.Split(name, "/")
	for i, seg := range ps {
		if seg == "**" && i == len(ps)-1 {
			return true, nil
		}
		if i >= len(ns) {
			return false, nil
		}
		ok, err := path.Match(seg, ns[i])
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return len(ps) == len(ns), nil
}

// refFile is a reference entry: its variables are a name -> value map.
type refFile struct {
	Path  string
	MTime sim.Time
	Vars  map[string]float64
}

func (f *refFile) clone() refFile {
	c := *f
	c.Vars = maps.Clone(f.Vars)
	return c
}

// refOf is f as the reference holds it. It fails the test if f holds a
// name twice, which the map cannot express.
func refOf(t *testing.T, f *File) refFile {
	t.Helper()
	vars := make(map[string]float64, len(f.Vars))
	for _, v := range f.Vars {
		vars[v.Name] = v.Value
	}
	if len(vars) != len(f.Vars) {
		t.Fatalf("%q holds a variable name twice: %v", f.Path, f.Vars)
	}
	return refFile{Path: f.Path, MTime: f.MTime, Vars: vars}
}

func refsOf(t *testing.T, files []*File) []refFile {
	t.Helper()
	var out []refFile
	for _, f := range files {
		out = append(out, refOf(t, f))
	}
	return out
}

// refFS is the reference filesystem: a bare map.
type refFS map[string]*refFile

func (r refFS) write(p string, mtime sim.Time, vars []Var) {
	f := &refFile{Path: p, MTime: mtime, Vars: map[string]float64{}}
	for _, v := range vars {
		f.Vars[v.Name] = v.Value
	}
	r[p] = f
}

func (r refFS) writeVar(p, name string, value float64, mtime sim.Time) {
	f, ok := r[p]
	if !ok {
		r.write(p, mtime, []Var{{name, value}})
		return
	}
	f.Vars[name] = value
	f.MTime = mtime
}

func (r refFS) glob(pattern string) []refFile {
	var out []refFile
	for p, f := range r {
		ok, err := refMatch(pattern, p)
		if err == nil && ok {
			out = append(out, f.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// paths returns the sorted reference paths, so a draw among them is
// seeded, not left to map order.
func (r refFS) paths() []string {
	out := make([]string, 0, len(r))
	for p := range r {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Generators. The alphabet is tiny on purpose: collisions between patterns
// and paths have to be common for the comparison to mean anything.

var (
	genPathSegs = []string{"a", "b", "ab", "a.b", "xgc1.00001.bp", "xgc1.00002.bp", "xgca.00001.bp", "out", "", "*", "**", "[", "a]"}
	genPatSegs  = []string{
		"a", "b", "ab", "out", "", // literals, empty segment
		"*", "a*", "*b", "*.bp", "xgc1.*.bp", "xgc?.*.bp", "a?", "?", // stars and question marks
		"[ab]", "[a-b]*", "[^a]", "x[gc]c1.*", `\*`, `a\.b`, `\[`, // classes and escapes
		"**", "a**", // "**" is only special as the final segment
		"[", "[a", "a[", "[]", "[a-]", `\`, "[^", // malformed
	}
)

func genPath(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	segs := make([]string, n)
	for i := range segs {
		segs[i] = genPathSegs[rng.Intn(len(genPathSegs))]
	}
	return strings.Join(segs, "/")
}

func genPattern(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	segs := make([]string, n)
	for i := range segs {
		segs[i] = genPatSegs[rng.Intn(len(genPatSegs))]
	}
	if rng.Intn(4) == 0 {
		segs[n-1] = "**"
	}
	return strings.Join(segs, "/")
}

// match is the segment matcher on an uncompiled pattern.
func match(pattern, name string) (bool, error) {
	return matchSegs(strings.Split(pattern, "/"), name)
}

// checkMatch compares match and the compiled pattern with the reference on
// one (pattern, name) pair.
func checkMatch(t *testing.T, pattern, name string) {
	t.Helper()
	wantOK, wantErr := refMatch(pattern, name)
	gotOK, gotErr := match(pattern, name)
	if gotOK != wantOK || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Match(%q, %q) = %v, %v; reference %v, %v", pattern, name, gotOK, gotErr, wantOK, wantErr)
	}
	if wantErr != nil && !errors.Is(gotErr, path.ErrBadPattern) {
		t.Fatalf("Match(%q, %q) error = %v, want ErrBadPattern", pattern, name, gotErr)
	}
	pat, err := Compile(pattern)
	if err != nil {
		// Compile is eager where the reference is lazy: it may reject a
		// pattern the reference only fails on for some names. But a
		// pattern it rejects never matches anything.
		if !errors.Is(err, path.ErrBadPattern) {
			t.Fatalf("Compile(%q) error = %v, want ErrBadPattern", pattern, err)
		}
		if wantOK {
			t.Fatalf("Compile(%q) failed but the reference matches %q", pattern, name)
		}
		return
	}
	if wantErr != nil {
		t.Fatalf("Compile(%q) succeeded but the reference fails on %q: %v", pattern, name, wantErr)
	}
	if got := pat.Match(name); got != wantOK {
		t.Fatalf("Compile(%q).Match(%q) = %v, reference %v", pattern, name, got, wantOK)
	}
	// The literal prefix is what selects the index range: a match outside
	// it would be silently skipped.
	if wantOK && !strings.HasPrefix(name, pat.prefix) {
		t.Fatalf("Compile(%q): %q matches but lacks the prefix %q", pattern, name, pat.prefix)
	}
}

func TestProperty_Match_EqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF51))
	for i := 0; i < 40000; i++ {
		checkMatch(t, genPattern(rng), genPath(rng))
	}
	// Every single segment against every other, so each malformed pattern
	// meets both a matching and a non-matching predecessor.
	for _, a := range genPatSegs {
		for _, b := range genPatSegs {
			for _, n := range genPathSegs {
				checkMatch(t, a+"/"+b, n+"/"+n)
				checkMatch(t, a+"/"+b, "a/"+n)
				checkMatch(t, a, n)
			}
		}
	}
}

func TestPatternMatchDoesNotAllocate(t *testing.T) {
	pat, err := Compile("out/xgc1.*.bp")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { pat.Match("out/xgc1.00374.bp") }); n != 0 {
		t.Errorf("Pattern.Match allocates %v times per call", n)
	}
}

// FuzzMatch: arbitrary patterns and names, same comparison.
func FuzzMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{"out/xgc1.*.bp", "out/xgc1.00001.bp"},
		{"a/**", "a"},
		{"a/**", "a/b/c"},
		{"**", ""},
		{"a//b", "a//b"},
		{"out/[.bp", "out/x.bp"},
		{"x/[", "y/z"},
		{`a\`, "a"},
		{"[a-", "a"},
		{"a/b/c/d/e/f/g/h/i/j", "a/b/c/d/e/f/g/h/i/j"},
		{"", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, name string) {
		checkMatch(t, pattern, name)
	})
}

// checkAgainstReference asserts that every read surface of fs agrees with
// the reference map, for each of the patterns.
func checkAgainstReference(t *testing.T, step string, fs *FS, ref refFS, patterns []string) {
	t.Helper()
	if fs.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference %d", step, fs.Len(), len(ref))
	}
	if len(fs.index) != len(ref) {
		t.Fatalf("%s: index holds %d entries, reference %d", step, len(fs.index), len(ref))
	}
	for i, f := range fs.index {
		if i > 0 && fs.index[i-1].Path >= f.Path {
			t.Fatalf("%s: index out of order at %d: %q then %q", step, i, fs.index[i-1].Path, f.Path)
		}
		if fs.Lookup(f.Path) != f {
			t.Fatalf("%s: Lookup(%q) is not the index's entry", step, f.Path)
		}
	}
	for p, want := range ref {
		got := fs.Lookup(p)
		if got == nil || !reflect.DeepEqual(refOf(t, got), *want) {
			t.Fatalf("%s: Lookup(%q) = %+v, reference %+v", step, p, got, want)
		}
		for name, v := range want.Vars {
			if got, err := fs.ReadVar(p, name); err != nil || got != v {
				t.Fatalf("%s: ReadVar(%q, %q) = %v, %v; reference %v", step, p, name, got, err, v)
			}
		}
	}
	for _, pattern := range patterns {
		want := ref.glob(pattern)
		if got := refsOf(t, fs.Glob(pattern)); !sameFiles(got, want) {
			t.Fatalf("%s: Glob(%q) = %v, reference %v", step, pattern, paths(got), paths(want))
		}
	}
}

// sameFiles is reflect.DeepEqual that takes a nil list for an empty one.
func sameFiles(a, b []refFile) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

func paths(files []refFile) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Path
	}
	return out
}

func TestProperty_Glob_EqualsReferenceUnderMutation(t *testing.T) {
	appends := 0 // tail appends a watch saw
	// Writes and variable updates, by whether the path existed.
	writes, writeVars := map[bool]int{}, map[bool]int{}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		fs := New(s)
		ref := refFS{}

		patterns := []string{"**", "out/xgc1.*.bp", "a/**", "*/*", "out/[.bp"}
		for i := 0; i < 6; i++ {
			patterns = append(patterns, genPattern(rng))
		}
		// Watches over the well-formed patterns, with the reference view
		// each last agreed with: the generation must move whenever that
		// view does, and only when an operation named a matching path. The
		// rewritten generation moves with it unless the operation created
		// a file sorting after every one the view held.
		type watched struct {
			w         *Watch
			gen       uint64
			rewritten uint64
			view      []refFile
		}
		var watches []*watched
		register := func(pattern string) {
			pat, err := Compile(pattern)
			if err != nil {
				return
			}
			w := fs.Watch(pat)
			if again := fs.Watch(pat); again != w {
				t.Fatalf("Watch(%q) registered twice", pattern)
			}
			for _, wd := range watches {
				if wd.w == w {
					return // an equal pattern is already watched
				}
			}
			// A watch registered over files that already exist starts out
			// holding them: its first Visit must see the current view.
			watches = append(watches, &watched{w: w, gen: w.Gen(), rewritten: w.Rewritten(), view: ref.glob(pattern)})
		}
		for _, pattern := range patterns {
			register(pattern)
		}
		late := []string{"*", "*/**", "out/*", "a/*/**", "a/**"}

		varNames := []string{"step", "errnorm", "exitcode"}
		for op := 0; op < 300; op++ {
			if op%50 == 25 {
				register(late[op/50%len(late)])
				register(genPattern(rng))
			}
			// Advance the clock so mtimes differ between operations.
			now := sim.Time(op+1) * time.Second
			if err := s.Run(now); err != nil {
				t.Fatal(err)
			}
			var step string
			var touched func(p string) bool // did the operation name path p?
			p := genPath(rng)
			kind := rng.Intn(5)
			if kind == 3 && len(ref) > 0 {
				// Half the variable updates name an existing file.
				existing := ref.paths()
				p = existing[rng.Intn(len(existing))]
			}
			_, existed := ref[p]
			created := !existed // a Write or WriteVar creates p
			switch kind {
			case 0, 1:
				// 0-3 variables from three names, so repeats are common,
				// and a rewrite often holds fewer than the file did.
				var vars []Var
				for n := rng.Intn(4); n > 0; n-- {
					vars = append(vars, Var{varNames[rng.Intn(len(varNames))], float64(rng.Intn(9))})
				}
				step = fmt.Sprintf("seed %d op %d: Write(%q, %v)", seed, op, p, vars)
				fs.Write(p, vars...)
				ref.write(p, now, vars)
				touched = func(q string) bool { return q == p }
				writes[existed]++
			case 2, 3:
				name := varNames[rng.Intn(len(varNames))]
				step = fmt.Sprintf("seed %d op %d: WriteVar(%q, %q)", seed, op, p, name)
				fs.WriteVar(p, name, float64(op))
				ref.writeVar(p, name, float64(op), now)
				touched = func(q string) bool { return q == p }
				writeVars[existed]++
			case 4:
				created = false
				step = fmt.Sprintf("seed %d op %d: Remove(%q)", seed, op, p)
				fs.Remove(p)
				delete(ref, p)
				touched = func(q string) bool { return q == p }
			}
			checkAgainstReference(t, step, fs, ref, patterns)

			for _, wd := range watches {
				pattern := wd.w.pat.src
				view := ref.glob(pattern)
				var visited []refFile
				wd.w.Visit(0, func(f *File) { visited = append(visited, refOf(t, f)) })
				if !sameFiles(visited, view) {
					t.Fatalf("%s: Visit(%q) = %v, reference %v", step, pattern, paths(visited), paths(view))
				}
				if wd.w.Len() != len(view) {
					t.Fatalf("%s: Len(%q) = %d, reference %d", step, pattern, wd.w.Len(), len(view))
				}
				gen := wd.w.Gen()
				if !reflect.DeepEqual(view, wd.view) && gen == wd.gen {
					t.Fatalf("%s: the files matching %q changed but the watch generation stayed %d", step, pattern, gen)
				}
				// Precision: an operation on paths the pattern does not
				// match leaves the generation alone.
				hit := false
				for _, f := range append(view, wd.view...) {
					hit = hit || touched(f.Path)
				}
				if !hit && gen != wd.gen {
					t.Fatalf("%s: no file matching %q was touched but the watch generation moved %d -> %d", step, pattern, wd.gen, gen)
				}
				// A tail append leaves the rewritten generation alone; any
				// other mutation of a matching file sets it to the new one.
				appended := created && wd.w.pat.Match(p) &&
					(len(wd.view) == 0 || p > wd.view[len(wd.view)-1].Path)
				want := wd.rewritten
				if gen != wd.gen && !appended {
					want = gen
				}
				if appended {
					appends++
				}
				rewritten := wd.w.Rewritten()
				if rewritten != want {
					t.Fatalf("%s: Rewritten(%q) = %d, want %d (generation %d -> %d, tail append %v)", step, pattern, rewritten, want, wd.gen, gen, appended)
				}
				// What an incremental reader relies on: while the rewritten
				// generation has not passed its read, the files it read are
				// still the first ones, and Visit from their count yields
				// exactly the rest.
				if rewritten <= wd.gen {
					if len(view) < len(wd.view) || !sameFiles(view[:len(wd.view)], wd.view) {
						t.Fatalf("%s: %q rewritten at %d <= %d, but the files read then changed: %v, were %v", step, pattern, rewritten, wd.gen, paths(view), paths(wd.view))
					}
					var added []refFile
					wd.w.Visit(len(wd.view), func(f *File) { added = append(added, refOf(t, f)) })
					if !sameFiles(added, view[len(wd.view):]) {
						t.Fatalf("%s: Visit(%q) from %d = %v, reference %v", step, pattern, len(wd.view), paths(added), paths(view[len(wd.view):]))
					}
				}
				wd.gen, wd.rewritten, wd.view = gen, rewritten, view
			}
		}
	}
	if appends == 0 {
		t.Fatal("no operation appended at a watch's tail; the drive must exercise it")
	}
	for _, existed := range []bool{false, true} {
		if writes[existed] == 0 || writeVars[existed] == 0 {
			t.Fatalf("writes %v, variable updates %v by whether the path existed: the drive must exercise both", writes, writeVars)
		}
	}
	t.Logf("%d tail appends; writes %v, variable updates %v by whether the path existed", appends, writes, writeVars)
}

// FuzzFS_EqualsReference decodes a sequence of mutations from the input —
// two bytes an operation, plus one a variable for a write — applies each to
// a filesystem and to the reference, and after each compares every read
// surface and a watch's view.
func FuzzFS_EqualsReference(f *testing.F) {
	f.Add([]byte{0x0c, 0, 1, 2, 3, 0x04, 0, 7, 1, 0, 0x05, 0, 2, 0})
	f.Add([]byte{0x08, 1, 0, 0x09, 1, 1, 2, 0x01, 1, 0x02, 2, 0x03, 3})
	f.Add([]byte{0x0c, 2, 0, 0, 0, 0x04, 2, 5, 0x0c, 3, 1, 4, 1, 0x06, 3})
	files := []string{"out/a.bp", "out/b.bp", "out/c", "a", "a/b", "b/out"}
	patterns := []string{"**", "out/*.bp", "a/**", "*", "out/["}
	names := []string{"step", "errnorm", "exitcode"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := sim.New(1)
		fs := New(s)
		ref := refFS{}
		pat, _ := Compile("out/*")
		w := fs.Watch(pat)
		for op := 0; len(ops) >= 2; op++ {
			code, p := ops[0], files[int(ops[1])%len(files)]
			ops = ops[2:]
			now := sim.Time(op+1) * time.Second
			if err := s.Run(now); err != nil {
				t.Fatal(err)
			}
			var step string
			switch code % 3 {
			case 0: // Write with code/4 % 4 variables, one byte each
				var vars []Var
				for n := int(code/4) % 4; n > 0 && len(ops) > 0; n-- {
					vars = append(vars, Var{names[int(ops[0])%len(names)], float64(ops[0] / 3)})
					ops = ops[1:]
				}
				step = fmt.Sprintf("op %d: Write(%q, %v)", op, p, vars)
				fs.Write(p, vars...)
				ref.write(p, now, vars)
			case 1:
				name := names[int(code/4)%len(names)]
				step = fmt.Sprintf("op %d: WriteVar(%q, %q)", op, p, name)
				fs.WriteVar(p, name, float64(op))
				ref.writeVar(p, name, float64(op), now)
			case 2:
				step = fmt.Sprintf("op %d: Remove(%q)", op, p)
				fs.Remove(p)
				delete(ref, p)
			}
			checkAgainstReference(t, step, fs, ref, patterns)
			var visited []refFile
			w.Visit(0, func(f *File) { visited = append(visited, refOf(t, f)) })
			if want := ref.glob("out/*"); !sameFiles(visited, want) {
				t.Fatalf("%s: Visit(out/*) = %v, reference %v", step, paths(visited), paths(want))
			}
		}
	})
}
