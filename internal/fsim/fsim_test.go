package fsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dyflow/internal/sim"
)

func TestWriteStatReadVar(t *testing.T) {
	s := sim.New(1)
	fs := New(s)
	s.After(5*time.Second, func() {
		fs.Write("out/xgc1.0001.bp", Var{"step", 100})
	})
	s.RunUntilIdle()

	f := fs.Lookup("out/xgc1.0001.bp")
	if f == nil {
		t.Fatal("file missing")
	}
	if f.MTime != 5*time.Second {
		t.Fatalf("file = %+v", f)
	}
	v, err := fs.ReadVar("out/xgc1.0001.bp", "step")
	if err != nil || v != 100 {
		t.Fatalf("ReadVar = %v, %v", v, err)
	}
	if _, err := fs.ReadVar("out/xgc1.0001.bp", "nope"); err == nil {
		t.Fatal("missing variable should error")
	}
	if _, err := fs.ReadVar("nope", "step"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestWriteVarUpdatesMTime(t *testing.T) {
	s := sim.New(1)
	fs := New(s)
	fs.WriteVar("status/sim.exit", "exitcode", 0)
	s.After(time.Minute, func() { fs.WriteVar("status/sim.exit", "exitcode", 137) })
	s.RunUntilIdle()
	f := fs.Lookup("status/sim.exit")
	if f.MTime != time.Minute {
		t.Fatalf("mtime = %v, want 1m", f.MTime)
	}
	if v, _ := f.Var("exitcode"); v != 137 {
		t.Fatalf("exitcode = %v", v)
	}
}

func TestGlobSortedAndIsolated(t *testing.T) {
	s := sim.New(1)
	fs := New(s)
	fs.Write("out/tau-iso.bp.2", Var{"v", 2})
	fs.Write("out/tau-iso.bp.0", Var{"v", 0})
	fs.Write("out/tau-iso.bp.1", Var{"v", 1})
	fs.Write("out/other.bp")

	got := fs.Glob("out/tau-iso.bp.*")
	if len(got) != 3 {
		t.Fatalf("matches = %d, want 3", len(got))
	}
	for i, f := range got {
		if v, _ := f.Var("v"); v != float64(i) {
			t.Fatalf("glob not sorted: %v", got)
		}
	}
	// Mutating the returned copy must not touch the FS.
	got[0].Vars[0].Value = 99
	if v, _ := fs.ReadVar("out/tau-iso.bp.0", "v"); v != 0 {
		t.Fatal("Glob returned aliased file data")
	}
}

func TestGlobSegments(t *testing.T) {
	s := sim.New(1)
	fs := New(s)
	fs.Write("a/b/c.txt")
	fs.Write("a/x/c.txt")
	fs.Write("a/b/d/e.txt")

	if n := len(fs.Glob("a/*/c.txt")); n != 2 {
		t.Fatalf("a/*/c.txt matches = %d, want 2", n)
	}
	// Single * does not cross segments.
	if n := len(fs.Glob("a/*")); n != 0 {
		t.Fatalf("a/* matches = %d, want 0", n)
	}
	// Trailing ** matches any suffix.
	if n := len(fs.Glob("a/**")); n != 3 {
		t.Fatalf("a/** matches = %d, want 3", n)
	}
	if n := len(fs.Glob("a/b/**")); n != 2 {
		t.Fatalf("a/b/** matches = %d, want 2", n)
	}
}

func TestMatchErrors(t *testing.T) {
	if _, err := match("[", "x"); err == nil {
		t.Fatal("bad pattern should error")
	}
	ok, err := match("a/b", "a/b/c")
	if err != nil || ok {
		t.Fatal("shorter pattern must not match longer path")
	}
	ok, _ = match("a/b/c", "a/b")
	if ok {
		t.Fatal("longer pattern must not match shorter path")
	}
}

func TestWriteRepeatedNameLastValueFirstPosition(t *testing.T) {
	fs := New(sim.New(1))
	fs.Write("out/a", Var{"step", 1}, Var{"errnorm", 0.5}, Var{"step", 2})
	want := []Var{{"step", 2}, {"errnorm", 0.5}}
	if got := fs.Lookup("out/a").Vars; !slices.Equal(got, want) {
		t.Fatalf("vars = %v, want %v", got, want)
	}
	// A rewrite replaces the whole list; WriteVar adds a new name at the end.
	fs.Write("out/a", Var{"errnorm", 0.25})
	fs.WriteVar("out/a", "step", 3)
	want = []Var{{"errnorm", 0.25}, {"step", 3}}
	if got := fs.Lookup("out/a").Vars; !slices.Equal(got, want) {
		t.Fatalf("vars = %v, want %v", got, want)
	}
}

func TestWriteAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fs := New(sim.New(1))
	fs.Write("out/a", Var{"step", 1}, Var{"errnorm", 0.5})
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"a rewrite with as many vars", func() { fs.Write("out/a", Var{"errnorm", 0.25}, Var{"step", 2}) }},
		{"a rewrite with fewer vars", func() { fs.Write("out/a", Var{"step", 3}) }},
		{"WriteVar of an existing name", func() { fs.WriteVar("out/a", "step", 4) }},
		{"Lookup", func() { _ = fs.Lookup("out/a") }},
		{"ReadVar", func() { _, _ = fs.ReadVar("out/a", "step") }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v times", c.name, n)
		}
	}

	// A creation allocates the File and one vars array of exactly the
	// written length; the index's amortized growth is under one allocation
	// per thousand creations, which AllocsPerRun's average rounds away.
	const creations = 1000
	paths := make([]string, creations+1)
	for i := range paths {
		paths[i] = fmt.Sprintf("out/xgc1.%05d.bp", i)
	}
	i := 0
	if n := testing.AllocsPerRun(creations, func() {
		fs.Write(paths[i], Var{"step", float64(i)}, Var{"errnorm", 0}, Var{"step", float64(i)})
		i++
	}); n != 2 {
		t.Errorf("a creation allocates %v times, want 2 (File, vars)", n)
	}
	if f := fs.Lookup(paths[creations]); len(f.Vars) != 2 || cap(f.Vars) != 3 {
		t.Errorf("created vars %v with cap %d, want 2 names in an array of exactly 3", f.Vars, cap(f.Vars))
	}
	// A rewrite with more vars than the array holds allocates exactly
	// their count.
	fs.Write(paths[0], Var{"a", 1}, Var{"b", 2}, Var{"c", 3}, Var{"d", 4})
	if f := fs.Lookup(paths[0]); len(f.Vars) != 4 || cap(f.Vars) != 4 {
		t.Errorf("regrown vars %v with cap %d, want exactly 4", f.Vars, cap(f.Vars))
	}
}

// TestRewriteInPlaceKeepsCopies: a rewrite overwrites the live entry's
// variables in place, so copies taken before it keep the old values and
// the live entry, as Lookup and a watch hand it out, shows the new ones.
func TestRewriteInPlaceKeepsCopies(t *testing.T) {
	fs := New(sim.New(1))
	pat, _ := Compile("out/*")
	w := fs.Watch(pat)
	fs.Write("out/a", Var{"step", 1}, Var{"errnorm", 0.5})
	live := fs.Lookup("out/a")
	array := &live.Vars[0]
	stat := fs.Lookup("out/a").clone()
	glob := fs.Glob("out/*")

	fs.Write("out/a", Var{"step", 2})
	fs.WriteVar("out/a", "errnorm", 0.25)
	if &fs.Lookup("out/a").Vars[0] != array {
		t.Fatal("the rewrite did not reuse the vars array")
	}
	old := []Var{{"step", 1}, {"errnorm", 0.5}}
	if !slices.Equal(stat.Vars, old) || !slices.Equal(glob[0].Vars, old) {
		t.Fatalf("copies taken before the rewrite read Lookup+clone %v, Glob %v; want %v", stat.Vars, glob[0].Vars, old)
	}
	now := []Var{{"step", 2}, {"errnorm", 0.25}}
	var visited []Var
	w.Visit(0, func(f *File) { visited = f.Vars })
	if !slices.Equal(visited, now) || !slices.Equal(live.Vars, now) {
		t.Fatalf("after the rewrite Visit reads %v, the live entry %v; want %v", visited, live.Vars, now)
	}
}
