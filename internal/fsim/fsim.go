// Package fsim provides the simulated parallel filesystem the workflow
// tasks write to and DYFLOW's disk-based sensor sources read from.
//
// Tasks deposit output files (e.g. XGC1's per-interval restart dumps),
// checkpoints, and scheduler-style exit-status files here; the Monitor
// stage's DISKSCAN and FILE source types poll it with glob patterns, exactly
// as the paper's NSTEPS and STATUS sensors do.
//
// Ordering: the filesystem keeps its entries in an index sorted by path,
// maintained by Write and Remove. Glob, Count and RemoveGlob walk that
// index, so results always come out in ascending path order, and a
// pattern's literal prefix ("out/xgc1." of "out/xgc1.*.bp") selects its
// index range by binary search instead of a walk over every file. A Watch
// keeps its own path-sorted list of the entries its pattern matches,
// maintained by the same mutations, so Watch.Visit matches no path at all.
//
// Appends: a watch also tells a tail append — a created file that sorts
// after every file it already holds, as rising "%05d" output steps do —
// apart from every other mutation. Between two generations joined only by
// tail appends, the files the watch held at the first are its first files
// at the second, unchanged, so a poller that extracted them once reads only
// the new ones (Watch.Rewritten, Watch.Visit's from).
//
// Copies: Stat and Glob return defensive copies the caller owns. Lookup and
// the scan visitor hand out the live entry instead: it is read-only, must
// not be retained, and is valid only until the next Write, WriteVar or
// Remove — a visitor callback must not modify the filesystem.
package fsim

import (
	"fmt"
	"path"
	"slices"
	"strings"

	"dyflow/internal/sim"
)

// File is one entry in the filesystem. Scientific output is modelled as a
// set of named numeric variables plus an opaque size — the pieces sensors
// actually consume.
type File struct {
	Path  string
	Size  int64
	MTime sim.Time
	// Vars holds named numeric variables readable by file-based sensors
	// (e.g. "step" -> 374, "exitcode" -> 137).
	Vars map[string]float64
}

// clone returns a defensive copy.
func (f *File) clone() *File {
	vars := make(map[string]float64, len(f.Vars))
	for k, v := range f.Vars {
		vars[k] = v
	}
	return &File{Path: f.Path, Size: f.Size, MTime: f.MTime, Vars: vars}
}

// FS is a flat-namespace virtual filesystem on the simulation clock. Paths
// are slash-separated; globbing matches with path.Match per segment.
type FS struct {
	sim   *sim.Sim
	files map[string]*File
	// index holds the same entries as files, sorted by path.
	index []*File
	// watches are the registered scan patterns whose generation every
	// mutation of a matching path advances.
	watches []*Watch
}

// New creates an empty filesystem bound to s.
func New(s *sim.Sim) *FS {
	return &FS{sim: s, files: make(map[string]*File)}
}

// search returns the position of the first entry of the path-sorted list
// whose path is >= p.
func search(list []*File, p string) int {
	i, _ := slices.BinarySearchFunc(list, p, func(f *File, p string) int { return strings.Compare(f.Path, p) })
	return i
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
			i := search(w.files, f.Path)
			if i < len(w.files) {
				w.rewritten = w.gen
			}
			w.files = slices.Insert(w.files, i, f)
		case removed:
			i := search(w.files, f.Path)
			w.files = slices.Delete(w.files, i, i+1)
			w.rewritten = w.gen
		default:
			w.rewritten = w.gen
		}
	}
}

// Write creates or replaces the file at p with the given size and
// variables, stamping the current virtual time.
func (fs *FS) Write(p string, size int64, vars map[string]float64) {
	f, ok := fs.files[p]
	if !ok {
		f = &File{Path: p}
		fs.files[p] = f
		fs.index = slices.Insert(fs.index, search(fs.index, p), f)
	}
	f.Size = size
	f.MTime = fs.sim.Now()
	f.Vars = make(map[string]float64, len(vars))
	for k, v := range vars {
		f.Vars[k] = v
	}
	c := updated
	if !ok {
		c = created
	}
	fs.touch(f, c)
}

// WriteVar creates or updates the file at p, setting a single variable and
// refreshing the mtime.
func (fs *FS) WriteVar(p, name string, value float64) {
	f, ok := fs.files[p]
	if !ok {
		fs.Write(p, 0, map[string]float64{name: value})
		return
	}
	f.Vars[name] = value
	f.MTime = fs.sim.Now()
	fs.touch(f, updated)
}

// Remove deletes the file at p (no-op if absent).
func (fs *FS) Remove(p string) {
	f, ok := fs.files[p]
	if !ok {
		return
	}
	delete(fs.files, p)
	i := search(fs.index, p)
	fs.index = slices.Delete(fs.index, i, i+1)
	fs.touch(f, removed)
}

// RemoveGlob deletes every file matching pattern and returns the count.
func (fs *FS) RemoveGlob(pattern string) int {
	var doomed []string
	fs.visit(pattern, func(f *File) { doomed = append(doomed, f.Path) })
	for _, p := range doomed {
		fs.Remove(p)
	}
	return len(doomed)
}

// Lookup returns the live entry at p, or nil if it does not exist. The
// entry is read-only and valid until the next mutation of the filesystem;
// use Stat for a copy to keep.
func (fs *FS) Lookup(p string) *File { return fs.files[p] }

// Stat returns a copy of the file at p, or nil if it does not exist.
func (fs *FS) Stat(p string) *File {
	f, ok := fs.files[p]
	if !ok {
		return nil
	}
	return f.clone()
}

// ReadVar reads one numeric variable from the file at p.
func (fs *FS) ReadVar(p, name string) (float64, error) {
	f, ok := fs.files[p]
	if !ok {
		return 0, fmt.Errorf("fsim: %s: no such file", p)
	}
	v, ok := f.Vars[name]
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
	fs.visit(pattern, func(f *File) { out = append(out, f.clone()) })
	return out
}

// Count returns the number of files matching pattern.
func (fs *FS) Count(pattern string) int {
	n := 0
	fs.visit(pattern, func(*File) { n++ })
	return n
}

// Len returns the total number of files.
func (fs *FS) Len() int { return len(fs.files) }

// visit compiles pattern and scans it; a malformed pattern matches nothing.
func (fs *FS) visit(pattern string, fn func(*File)) {
	if pat, err := Compile(pattern); err == nil {
		fs.scan(pat, fn)
	}
}

// scan is the one scan path: it calls fn with the live entry of every file
// matching pat, in ascending path order. Only the index range sharing the
// pattern's literal prefix is walked.
func (fs *FS) scan(pat *Pattern, fn func(*File)) {
	for i := search(fs.index, pat.prefix); i < len(fs.index); i++ {
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

// Match reports whether name matches the glob pattern, comparing path
// segments with path.Match. A final "**" pattern segment matches any
// remaining (possibly empty) suffix of name.
func Match(pattern, name string) (bool, error) {
	return matchSegs(strings.Split(pattern, "/"), name)
}

// matchSegs matches name's slash-separated segments against the pattern
// segments one by one, without splitting name.
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
