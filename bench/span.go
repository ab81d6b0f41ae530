package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed interval the bench recorded around a call into a
// layer. Spans of one run share Run; Parent is the index of the span that
// caused this one (-1 for a run's root).
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. A nil recorder is
// tracing switched off: add does nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records one finished span and returns its index.
func (r *recorder) add(name, run string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Run: run, Parent: parent,
		Start: start.UnixNano(), End: end.UnixNano()})
	return len(r.spans) - 1
}

// setEnd moves a recorded span's end (a root is added before its children
// so they can name it, and closed once the last of them returned).
func (r *recorder) setEnd(i int, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = end.UnixNano()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. A span counts
// only as far as it lies inside its parent, and overlapping children are
// counted once, so the self times under one root add up to at most the
// root's duration — exactly to it when siblings do not overlap.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	// clipped[i] is span i cut to its parent's clipped interval.
	clipped := make([]*iv, len(spans))
	var clip func(i int) iv
	clip = func(i int) iv {
		if clipped[i] != nil {
			return *clipped[i]
		}
		v := iv{spans[i].Start, spans[i].End}
		if p := spans[i].Parent; p >= 0 && p < len(spans) && p != i {
			pv := clip(p)
			v = iv{max(v.a, pv.a), min(v.b, pv.b)}
		}
		v.b = max(v.a, v.b)
		clipped[i] = &v
		return v
	}
	kids := make(map[int][]iv)
	for i, sp := range spans {
		if v := clip(i); sp.Parent >= 0 && sp.Parent < len(spans) && v.b > v.a {
			kids[sp.Parent] = append(kids[sp.Parent], v)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		v := clip(i)
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := int64(0), v.a
		for _, k := range ivs {
			if k.b <= edge {
				continue
			}
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
		self[i] = v.b - v.a - covered
	}
	return self
}
