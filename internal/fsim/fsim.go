// Package fsim provides the simulated parallel filesystem the workflow
// tasks write to and DYFLOW's disk-based sensor sources read from.
//
// Tasks deposit output files (e.g. XGC1's per-interval restart dumps),
// checkpoints, and scheduler-style exit-status files here; the Monitor
// stage's DISKSCAN source polls it with glob patterns and its ERRORSTATUS
// source looks up one path, exactly as the paper's NSTEPS and STATUS
// sensors do.
//
// Ordering: the filesystem keeps its entries in one index sorted by path,
// maintained by Write and Remove; it is the only store, and an operation on
// one path finds its entry by binary search. Glob walks that index, so
// results always come out in ascending path order, and a pattern's literal
// prefix ("out/xgc1." of "out/xgc1.*.bp") selects its index range by
// binary search instead of a walk over every file. A Watch keeps its own
// path-sorted list of the entries its pattern matches, maintained by the
// same mutations, so Watch.Visit matches no path at all.
//
// Appends: a watch also tells a tail append — a created file that sorts
// after every file it already holds, as rising "%05d" output steps do —
// apart from every other mutation. Between two generations joined only by
// tail appends, the files the watch held at the first are its first files
// at the second, unchanged, so a poller that extracted them once reads only
// the new ones (Watch.Rewritten, Watch.Visit's from).
//
// Copies: Glob returns defensive copies the caller owns, variables
// included. Lookup and the scan visitor hand out the live entry instead: it
// is read-only, must not be retained, and is valid only until the next
// Write, WriteVar or Remove — a visitor callback must not modify the
// filesystem. A rewrite of an existing file overwrites its variables in
// place when their array is large enough, so a copy taken before it keeps
// the old values and the live entry shows the new ones.
package fsim

import (
	"fmt"
	"path"
	"slices"
	"strings"

	"dyflow/internal/sim"
)

// Var is one named numeric variable of a file (e.g. "step" = 374,
// "exitcode" = 137).
type Var struct {
	Name  string
	Value float64
}

// File is one entry in the filesystem. Scientific output is modelled as a
// set of named numeric variables — the piece sensors actually consume.
type File struct {
	Path  string
	MTime sim.Time
	// Vars holds the variables readable by file-based sensors, each name
	// once, in the order the names were first written.
	Vars []Var
}

// Var returns the value of the named variable and whether the file has it.
func (f *File) Var(name string) (float64, bool) {
	if i := varIndex(f.Vars, name); i >= 0 {
		return f.Vars[i].Value, true
	}
	return 0, false
}

// varIndex returns the position of the named variable in vars, or -1.
func varIndex(vars []Var, name string) int {
	for i := range vars {
		if vars[i].Name == name {
			return i
		}
	}
	return -1
}

// clone returns a defensive copy.
func (f *File) clone() *File {
	c := *f
	c.Vars = slices.Clone(f.Vars)
	return &c
}

// assign sets dst to vars with each name once: a repeated name keeps its
// first position and its last value, as a map would. dst's array is reused
// when it holds len(vars); otherwise the new one holds exactly len(vars).
func assign(dst, vars []Var) []Var {
	if cap(dst) < len(vars) {
		dst = make([]Var, 0, len(vars))
	}
	out := dst[:0]
	for _, v := range vars {
		if i := varIndex(out, v.Name); i >= 0 {
			out[i].Value = v.Value
		} else {
			out = append(out, v)
		}
	}
	return out
}

// FS is a flat-namespace virtual filesystem on the simulation clock. Paths
// are slash-separated; globbing matches with path.Match per segment.
type FS struct {
	sim *sim.Sim
	// index holds every entry, sorted by path.
	index []*File
	// watches are the registered scan patterns whose generation every
	// mutation of a matching path advances.
	watches []*Watch
}

// New creates an empty filesystem bound to s.
func New(s *sim.Sim) *FS {
	return &FS{sim: s}
}

// search returns the position of the first entry of the path-sorted list
// whose path is >= p, and whether that entry's path is p.
func search(list []*File, p string) (int, bool) {
	return slices.BinarySearchFunc(list, p, func(f *File, p string) int { return strings.Compare(f.Path, p) })
}

// change is what a mutation did to the entry it names.
type change int8

const (
	updated change = iota
	created
	removed
)

// touch advances the generation of every watch whose pattern matches f's
// path, and adds f to (created) or cuts it from (removed) their lists. Any
// mutation but a creation at the end of a list marks that watch rewritten.
func (fs *FS) touch(f *File, c change) {
	for _, w := range fs.watches {
		if !w.pat.Match(f.Path) {
			continue
		}
		w.gen++
		switch c {
		case created:
			i, _ := search(w.files, f.Path)
			if i < len(w.files) {
				w.rewritten = w.gen
			}
			w.files = slices.Insert(w.files, i, f)
		case removed:
			i, _ := search(w.files, f.Path)
			w.files = slices.Delete(w.files, i, i+1)
			w.rewritten = w.gen
		default:
			w.rewritten = w.gen
		}
	}
}

// Write creates or replaces the file at p with the given variables,
// stamping the current virtual time. A repeated name keeps its last value;
// vars is not retained.
func (fs *FS) Write(p string, vars ...Var) {
	i, ok := search(fs.index, p)
	c := updated
	if !ok {
		fs.index = slices.Insert(fs.index, i, &File{Path: p})
		c = created
	}
	f := fs.index[i]
	f.MTime = fs.sim.Now()
	f.Vars = assign(f.Vars, vars)
	fs.touch(f, c)
}

// WriteVar creates or updates the file at p, setting a single variable and
// refreshing the mtime.
func (fs *FS) WriteVar(p, name string, value float64) {
	f := fs.Lookup(p)
	if f == nil {
		fs.Write(p, Var{name, value})
		return
	}
	if i := varIndex(f.Vars, name); i >= 0 {
		f.Vars[i].Value = value
	} else {
		f.Vars = append(f.Vars, Var{name, value})
	}
	f.MTime = fs.sim.Now()
	fs.touch(f, updated)
}

// Remove deletes the file at p (no-op if absent).
func (fs *FS) Remove(p string) {
	i, ok := search(fs.index, p)
	if !ok {
		return
	}
	f := fs.index[i]
	fs.index = slices.Delete(fs.index, i, i+1)
	fs.touch(f, removed)
}

// Lookup returns the live entry at p, or nil if it does not exist. The
// entry is read-only and valid until the next mutation of the filesystem.
func (fs *FS) Lookup(p string) *File {
	if i, ok := search(fs.index, p); ok {
		return fs.index[i]
	}
	return nil
}

// ReadVar reads one numeric variable from the file at p.
func (fs *FS) ReadVar(p, name string) (float64, error) {
	f := fs.Lookup(p)
	if f == nil {
		return 0, fmt.Errorf("fsim: %s: no such file", p)
	}
	v, ok := f.Var(name)
	if !ok {
		return 0, fmt.Errorf("fsim: %s: no variable %q", p, name)
	}
	return v, nil
}

// Glob returns copies of all files whose path matches pattern, sorted by
// path. Matching is segment-wise (path.Match semantics per path element);
// a trailing "**" segment matches any remaining suffix. A malformed
// pattern matches nothing.
func (fs *FS) Glob(pattern string) []*File {
	var out []*File
	if pat, err := Compile(pattern); err == nil {
		fs.scan(pat, func(f *File) { out = append(out, f.clone()) })
	}
	return out
}

// Len returns the total number of files.
func (fs *FS) Len() int { return len(fs.index) }

// scan is the one scan path: it calls fn with the live entry of every file
// matching pat, in ascending path order. Only the index range sharing the
// pattern's literal prefix is walked.
func (fs *FS) scan(pat *Pattern, fn func(*File)) {
	i, _ := search(fs.index, pat.prefix)
	for ; i < len(fs.index); i++ {
		f := fs.index[i]
		if !strings.HasPrefix(f.Path, pat.prefix) {
			return
		}
		// The prefix is already established; segments were validated by Compile.
		if ok, _ := matchSegs(pat.segs, f.Path); ok {
			fn(f)
		}
	}
}

// Pattern is a compiled, validated glob pattern: path.Match syntax per
// slash-separated segment, a final "**" segment matching any remaining
// (possibly empty) suffix. Matching does not allocate.
type Pattern struct {
	src  string
	segs []string
	// prefix is a literal string every matching path starts with.
	prefix string
}

// Compile validates pattern and prepares it for repeated matching. It
// reports path.ErrBadPattern for a malformed segment, wherever it sits —
// Match only reports one it reaches.
func Compile(pattern string) (*Pattern, error) {
	pat := &Pattern{src: pattern, segs: strings.Split(pattern, "/")}
	for _, seg := range pat.segs {
		if _, err := path.Match(seg, ""); err != nil {
			return nil, fmt.Errorf("fsim: pattern %q: %w", pattern, err)
		}
	}
	lit := pattern
	if n := len(pat.segs); pat.segs[n-1] == "**" {
		// "a/**" also matches "a" itself: the prefix stops short of the
		// separator in front of the final segment.
		lit = strings.TrimSuffix(pattern[:len(pattern)-len("**")], "/")
	}
	if i := strings.IndexAny(lit, `*?[\`); i >= 0 {
		lit = lit[:i]
	}
	pat.prefix = lit
	return pat, nil
}

// Match reports whether name matches the pattern.
func (pat *Pattern) Match(name string) bool {
	if !strings.HasPrefix(name, pat.prefix) {
		return false
	}
	ok, _ := matchSegs(pat.segs, name) // segments were validated by Compile
	return ok
}

// matchSegs matches name's slash-separated segments against the pattern
// segments one by one, without splitting name, comparing each with
// path.Match. A final "**" pattern segment matches any remaining (possibly
// empty) suffix of name.
func matchSegs(segs []string, name string) (bool, error) {
	more := true // name has a segment left (an empty name is one empty segment)
	for i, seg := range segs {
		if seg == "**" && i == len(segs)-1 {
			return true, nil
		}
		if !more {
			return false, nil
		}
		elem := name
		if j := strings.IndexByte(name, '/'); j >= 0 {
			elem, name = name[:j], name[j+1:]
		} else {
			more = false
		}
		ok, err := path.Match(seg, elem)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return !more, nil
}

// Watch is a scan pattern registered with a filesystem. Its generation
// advances whenever a file the pattern matches is written, updated or
// removed, so a poller can tell "nothing I read has changed" without
// rescanning; it holds the live entries the pattern matches, so a poller
// that must re-read walks exactly those; and it records the generation of
// its last mutation that was not a tail append, so a poller whose read is
// at least that recent re-reads only the files added since.
type Watch struct {
	pat *Pattern
	gen uint64
	// rewritten is the generation of the last mutation that was not a tail
	// append: an update, a removal, or a creation that sorts before the
	// last entry. 0 until the first such mutation.
	rewritten uint64
	// files holds the live entries pat matches, sorted by path: filled by
	// one scan at registration, then kept by touch.
	files []*File
}

// Watch registers pat and returns its watch; registering an equal pattern
// again returns the same watch.
func (fs *FS) Watch(pat *Pattern) *Watch {
	for _, w := range fs.watches {
		if w.pat.src == pat.src {
			return w
		}
	}
	w := &Watch{pat: pat}
	fs.scan(pat, func(f *File) { w.files = append(w.files, f) })
	fs.watches = append(fs.watches, w)
	return w
}

// Gen returns the watch's current generation.
func (w *Watch) Gen() uint64 { return w.gen }

// Rewritten returns the generation of the watch's last mutation that was
// not a tail append. A read taken at generation g >= Rewritten() saw the
// files that are still the watch's first ones, unchanged: every mutation
// since g appended a file after them.
func (w *Watch) Rewritten() uint64 { return w.rewritten }

// Len returns the number of files the watched pattern matches.
func (w *Watch) Len() int { return len(w.files) }

// Visit calls fn with the live entry of every matching file from the
// from-th on (0 for all of them), in ascending path order. See the package
// comment for what fn may do with the entry.
func (w *Watch) Visit(from int, fn func(*File)) {
	for _, f := range w.files[from:] {
		fn(f)
	}
}
