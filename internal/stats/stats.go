// Package stats provides the small numerical toolkit DYFLOW's Monitor and
// Decision stages are built on: reduction operations that summarize grouped
// sensor readings into metrics, and sliding windows with pre-analysis
// operations for policy history.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op identifies a reduction operation over a set of float64 readings. The
// names match the `reduction-operation` / history `operation` vocabulary of
// the DYFLOW XML interface.
type Op int

const (
	// OpMax selects the maximum reading.
	OpMax Op = iota
	// OpMin selects the minimum reading.
	OpMin
	// OpSum adds all readings.
	OpSum
	// OpAvg averages all readings.
	OpAvg
	// OpCount counts the readings.
	OpCount
	// OpFirst selects the first reading in arrival order (the paper's
	// ERRORSTATUS sensor uses FIRST to read rank 0's exit code).
	OpFirst
	// OpLast selects the most recent reading.
	OpLast
	// OpMedian selects the middle reading (average of the middle two for
	// even counts).
	OpMedian
	// OpStdDev computes the population standard deviation.
	OpStdDev
	// OpSlope fits a least-squares line through the readings (x = sample
	// index) and returns its slope — the per-sample trend. This is the
	// predictive extension the paper's future work sketches: a policy can
	// fire on a growing metric before it crosses a hard limit.
	OpSlope
)

var opNames = map[Op]string{
	OpMax:    "MAX",
	OpMin:    "MIN",
	OpSum:    "SUM",
	OpAvg:    "AVG",
	OpCount:  "COUNT",
	OpFirst:  "FIRST",
	OpLast:   "LAST",
	OpMedian: "MEDIAN",
	OpStdDev: "STDDEV",
	OpSlope:  "SLOPE",
}

// String returns the XML name of the operation.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// ParseOp converts an XML operation name (case-insensitive) to an Op.
func ParseOp(name string) (Op, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for op, s := range opNames {
		if s == up {
			return op, nil
		}
	}
	return 0, fmt.Errorf("stats: unknown reduction operation %q", name)
}

// Reduce applies op to values, which must be in arrival order for OpFirst
// and OpLast to be meaningful. Reducing an empty slice returns (0, false)
// except for OpCount, which returns (0, true).
func Reduce(op Op, values []float64) (float64, bool) {
	if len(values) == 0 {
		if op == OpCount {
			return 0, true
		}
		return 0, false
	}
	switch op {
	case OpCount:
		return float64(len(values)), true
	case OpFirst:
		return values[0], true
	case OpLast:
		return values[len(values)-1], true
	case OpMedian:
		tmp := append([]float64(nil), values...)
		return median(tmp), true
	default:
		return reduceStream(op, values, nil)
	}
}

// median sorts tmp in place and returns the middle value (average of the
// middle two for even counts). tmp must be non-empty.
func median(tmp []float64) float64 {
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// reduceStream applies a streaming (single- or double-pass) operation over
// the logical concatenation a++b without materializing it — the copy-free
// path Window.Reduce uses on its two ring segments.
func reduceStream(op Op, a, b []float64) (float64, bool) {
	n := len(a) + len(b)
	if n == 0 {
		return 0, false
	}
	switch op {
	case OpMax:
		m := math.Inf(-1)
		for _, seg := range [2][]float64{a, b} {
			for _, v := range seg {
				if v > m {
					m = v
				}
			}
		}
		return m, true
	case OpMin:
		m := math.Inf(1)
		for _, seg := range [2][]float64{a, b} {
			for _, v := range seg {
				if v < m {
					m = v
				}
			}
		}
		return m, true
	case OpSum, OpAvg:
		s := 0.0
		for _, seg := range [2][]float64{a, b} {
			for _, v := range seg {
				s += v
			}
		}
		if op == OpAvg {
			s /= float64(n)
		}
		return s, true
	case OpStdDev:
		mean := 0.0
		for _, seg := range [2][]float64{a, b} {
			for _, v := range seg {
				mean += v
			}
		}
		mean /= float64(n)
		ss := 0.0
		for _, seg := range [2][]float64{a, b} {
			for _, v := range seg {
				d := v - mean
				ss += d * d
			}
		}
		return math.Sqrt(ss / float64(n)), true
	case OpSlope:
		if n < 2 {
			return 0, true // a single reading has no trend
		}
		// Least squares with x = 0..n-1.
		var sumX, sumY, sumXY, sumXX float64
		i := 0
		for _, seg := range [2][]float64{a, b} {
			for _, v := range seg {
				x := float64(i)
				sumX += x
				sumY += v
				sumXY += x * v
				sumXX += x * x
				i++
			}
		}
		fn := float64(n)
		denom := fn*sumXX - sumX*sumX
		if denom == 0 {
			return 0, true
		}
		return (fn*sumXY - sumX*sumY) / denom, true
	default:
		return 0, false
	}
}

// NearestRank returns the nearest-rank q-quantile of samples sorted
// ascending: the ceil(q·n)-th smallest, its rank clamped to [1, n]. This
// is the convention obs.Histogram.Quantile uses too: for any n ≤ 100 the
// 0.99-quantile's rank is n, so P99 of a small sample is its maximum. No
// samples yield the zero value.
func NearestRank[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Window is a fixed-capacity sliding window of float64 readings, the
// backing store for a policy's `<history window="N" operation="...">`
// element. The zero value is unusable; create windows with NewWindow.
type Window struct {
	buf   []float64
	size  int
	head  int // index of the oldest element
	count int

	scratch []float64 // reusable sort buffer for OpMedian reductions
}

// NewWindow creates a window keeping the latest size readings. size must be
// positive.
func NewWindow(size int) *Window {
	if size <= 0 {
		panic("stats: window size must be positive")
	}
	return &Window{buf: make([]float64, size), size: size}
}

// Push appends v, evicting the oldest reading if the window is full.
func (w *Window) Push(v float64) {
	if w.count < w.size {
		w.buf[(w.head+w.count)%w.size] = v
		w.count++
		return
	}
	w.buf[w.head] = v
	w.head = (w.head + 1) % w.size
}

// Len returns the number of readings currently held.
func (w *Window) Len() int { return w.count }

// Values returns the readings in arrival order (oldest first).
func (w *Window) Values() []float64 {
	out := make([]float64, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = w.buf[(w.head+i)%w.size]
	}
	return out
}

// segments returns the window contents as up to two contiguous slices in
// arrival order (oldest first), without copying. The returned slices alias
// the ring buffer and are invalidated by the next Push.
func (w *Window) segments() (a, b []float64) {
	if w.count == 0 {
		return nil, nil
	}
	end := w.head + w.count
	if end <= w.size {
		return w.buf[w.head:end], nil
	}
	return w.buf[w.head:w.size], w.buf[:end-w.size]
}

// Reduce applies op over the window contents. The reduction runs directly
// on the ring buffer — policy history evaluation allocates nothing except
// a reusable sort scratch for OpMedian.
func (w *Window) Reduce(op Op) (float64, bool) {
	if w.count == 0 {
		if op == OpCount {
			return 0, true
		}
		return 0, false
	}
	a, b := w.segments()
	switch op {
	case OpCount:
		return float64(w.count), true
	case OpFirst:
		return a[0], true
	case OpLast:
		if len(b) > 0 {
			return b[len(b)-1], true
		}
		return a[len(a)-1], true
	case OpMedian:
		if cap(w.scratch) < w.count {
			w.scratch = make([]float64, 0, w.size)
		}
		tmp := append(append(w.scratch[:0], a...), b...)
		w.scratch = tmp[:0]
		return median(tmp), true
	default:
		return reduceStream(op, a, b)
	}
}

// Reset discards all readings.
func (w *Window) Reset() {
	w.head = 0
	w.count = 0
}

// Restore replaces the window contents with values (oldest first), keeping
// only the newest Size readings if more are given — the checkpoint/restore
// path round-trips Values().
func (w *Window) Restore(values []float64) {
	w.Reset()
	if len(values) > w.size {
		values = values[len(values)-w.size:]
	}
	for _, v := range values {
		w.Push(v)
	}
}

// Welford is a streaming mean/variance accumulator used by the experiment
// harness for response-time accounting.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds v into the accumulator.
func (a *Welford) Add(v float64) {
	a.n++
	d := v - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (v - a.mean)
}

// Mean returns the running mean (0 with no samples).
func (a *Welford) Mean() float64 { return a.mean }

// StdDev returns the population standard deviation (0 with < 2 samples).
func (a *Welford) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}
