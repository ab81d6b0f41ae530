package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestReduceTable(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	cases := []struct {
		op   Op
		want float64
	}{
		{OpMax, 5},
		{OpMin, 1},
		{OpSum, 14},
		{OpAvg, 2.8},
		{OpCount, 5},
		{OpFirst, 3},
		{OpLast, 5},
		{OpMedian, 3},
	}
	for _, c := range cases {
		got, ok := Reduce(c.op, vals)
		if !ok {
			t.Fatalf("%v: not ok", c.op)
		}
		if !almostEq(got, c.want) {
			t.Errorf("%v = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	for _, op := range []Op{OpMax, OpMin, OpSum, OpAvg, OpFirst, OpLast, OpMedian, OpStdDev} {
		if _, ok := Reduce(op, nil); ok {
			t.Errorf("%v over empty input should not be ok", op)
		}
	}
	if v, ok := Reduce(OpCount, nil); !ok || v != 0 {
		t.Errorf("COUNT over empty = (%v, %v), want (0, true)", v, ok)
	}
}

func TestReduceMedianEven(t *testing.T) {
	got, ok := Reduce(OpMedian, []float64{1, 2, 3, 10})
	if !ok || !almostEq(got, 2.5) {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestReduceStdDev(t *testing.T) {
	got, ok := Reduce(OpStdDev, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !ok || !almostEq(got, 2) {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for _, op := range []Op{OpMax, OpMin, OpSum, OpAvg, OpCount, OpFirst, OpLast, OpMedian, OpStdDev} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("BOGUS"); err == nil {
		t.Error("ParseOp(BOGUS) should fail")
	}
	if op, err := ParseOp(" avg "); err != nil || op != OpAvg {
		t.Errorf("ParseOp should be case/space-insensitive, got %v, %v", op, err)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for i := 1; i <= 5; i++ {
		w.Push(float64(i))
	}
	got := w.Values()
	want := []float64{3, 4, 5}
	if len(got) != 3 {
		t.Fatalf("Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
	if w.Len() != w.size {
		t.Fatal("window should be full")
	}
	if avg, _ := w.Reduce(OpAvg); !almostEq(avg, 4) {
		t.Fatalf("avg = %v, want 4", avg)
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(4)
	w.Push(1)
	w.Push(2)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after reset = %d", w.Len())
	}
	w.Push(9)
	if v, _ := w.Reduce(OpLast); v != 9 {
		t.Fatalf("Last = %v, want 9", v)
	}
}

// Property: a Window with capacity >= number of pushes reduces identically
// to a direct Reduce over the pushed values; with smaller capacity it
// matches a Reduce over the suffix.
func TestWindowMatchesNaive(t *testing.T) {
	f := func(raw []int16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		w := NewWindow(capacity)
		var all []float64
		for _, r := range raw {
			v := float64(r)
			w.Push(v)
			all = append(all, v)
		}
		suffix := all
		if len(all) > capacity {
			suffix = all[len(all)-capacity:]
		}
		for _, op := range []Op{OpMax, OpMin, OpSum, OpAvg, OpCount, OpFirst, OpLast, OpMedian} {
			got, gok := w.Reduce(op)
			want, wok := Reduce(op, suffix)
			if gok != wok {
				return false
			}
			if gok && math.Abs(got-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Welford matches naive mean/stddev.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var a Welford
		var vals []float64
		for _, r := range raw {
			v := float64(r)
			a.Add(v)
			vals = append(vals, v)
		}
		mean, _ := Reduce(OpAvg, vals)
		sd, _ := Reduce(OpStdDev, vals)
		return almostEqTol(a.Mean(), mean, 1e-6) &&
			(len(vals) < 2 || almostEqTol(a.StdDev(), sd, 1e-6))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func almostEqTol(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

func TestSlope(t *testing.T) {
	if v, ok := Reduce(OpSlope, []float64{1, 3, 5, 7}); !ok || !almostEq(v, 2) {
		t.Fatalf("slope = %v, %v, want 2", v, ok)
	}
	if v, ok := Reduce(OpSlope, []float64{10, 10, 10}); !ok || !almostEq(v, 0) {
		t.Fatalf("flat slope = %v, want 0", v)
	}
	if v, ok := Reduce(OpSlope, []float64{9, 6, 3}); !ok || !almostEq(v, -3) {
		t.Fatalf("falling slope = %v, want -3", v)
	}
	if v, ok := Reduce(OpSlope, []float64{42}); !ok || v != 0 {
		t.Fatalf("single reading slope = %v, want 0", v)
	}
	if _, ok := Reduce(OpSlope, nil); ok {
		t.Fatal("empty input should not be ok")
	}
	// Noisy linear data still recovers the trend approximately.
	var vals []float64
	for i := 0; i < 20; i++ {
		noise := 0.1
		if i%2 == 0 {
			noise = -0.1
		}
		vals = append(vals, 5+0.5*float64(i)+noise)
	}
	if v, _ := Reduce(OpSlope, vals); v < 0.45 || v > 0.55 {
		t.Fatalf("noisy slope = %v, want ~0.5", v)
	}
}

// TestNearestRank pins the rank = ceil(q*n) convention, tiny samples
// included (the earlier round-half-up formula could land a rank low for
// small n, reporting P50-ish values as P99), and the clamps at both ends.
func TestNearestRank(t *testing.T) {
	cases := []struct {
		samples  []float64
		q        float64
		want     float64
		describe string
	}{
		{nil, 0.50, 0, "empty is the zero value"},
		{[]float64{7}, 0.50, 7, "n=1 p50"},
		{[]float64{7}, 0.99, 7, "n=1 p99"},
		{[]float64{1, 9}, 0.50, 1, "n=2 p50 rank ceil(1)=1"},
		{[]float64{1, 9}, 0.99, 9, "n=2 p99 is the max"},
		{[]float64{1, 2, 9}, 0.50, 2, "n=3 p50 rank ceil(1.5)=2"},
		{[]float64{1, 2, 9}, 0.99, 9, "n=3 p99 is the max"},
		{[]float64{1, 2, 3, 9}, 0.99, 9, "n=4 p99 is the max"},
		{[]float64{1, 2, 3, 4}, 0.25, 1, "n=4 p25 rank ceil(1)=1"},
		{[]float64{1, 2, 3, 4}, 0.50, 2, "n=4 p50 rank 2"},
		{[]float64{1, 2, 3, 4}, 0, 1, "q=0 clamps to the minimum"},
		{[]float64{1, 2, 3, 4}, 1.5, 4, "q>1 clamps to the maximum"},
	}
	for _, c := range cases {
		if got := NearestRank(c.samples, c.q); got != c.want {
			t.Errorf("%s: got %v, want %v", c.describe, got, c.want)
		}
	}
	if got := NearestRank([]string{"a", "b", "c"}, 0.5); got != "b" {
		t.Errorf("generic over element type: got %q, want b", got)
	}
}
