package task_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dyflow/internal/apps"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// appPatterns returns every OutputPattern the shipped applications
// declare, on both machines.
func appPatterns(t testing.TB) []string {
	var out []string
	for _, m := range []apps.Machine{apps.Summit, apps.Deepthought2} {
		for _, wf := range []*wms.WorkflowSpec{apps.XGCWorkflow(m), apps.GrayScottWorkflow(m), apps.LAMMPSWorkflow(m)} {
			for _, tc := range wf.Tasks {
				if tc.Spec.OutputPattern != "" {
					out = append(out, tc.Spec.OutputPattern)
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no application declares an output pattern")
	}
	return out
}

// TestProperty_OutputPath_EqualsSprintf: the path an output step writes,
// appended from the pattern split at launch, is byte for byte what
// fmt.Sprintf(pattern, step) formats — the reference it replaced — for
// every application pattern and a few of every shape accepted, over edge
// and random steps.
func TestProperty_OutputPath_EqualsSprintf(t *testing.T) {
	patterns := append(appPatterns(t), "%d", "%01d", "%020d", "out/t.%03d", "step-%d.bp", "a/%07d/b")
	steps := []int{0, 1, 9, 10, 99, 99999, 100000, -1, -42, -99999, math.MaxInt, math.MinInt}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		steps = append(steps, rng.Intn(2_000_000)-1_000_000)
	}
	for _, pattern := range patterns {
		for _, step := range steps {
			got, err := task.AppendOutputPath(nil, pattern, step)
			if err != nil {
				t.Fatalf("%q rejected: %v", pattern, err)
			}
			if want := fmt.Sprintf(pattern, step); string(got) != want {
				t.Fatalf("%q, step %d: %q, want %q", pattern, step, got, want)
			}
		}
	}
}

// TestOutputPatternRejected: a pattern that is not exactly one %d or
// %0Nd verb is rejected at launch (and by Compose, through
// CheckOutputPattern) rather than formatted some other way.
func TestOutputPatternRejected(t *testing.T) {
	for _, pattern := range []string{
		"out/t.bp", "out/%s.bp", "%5d", "%0d", "%00d", "%021d", "%d%d", "%d.%05d",
		"100%%/%d", "%d%", "%", "%-5d", "%+d", "%x", "%v", "%05s",
	} {
		if err := task.CheckOutputPattern(pattern); err == nil {
			t.Errorf("%q accepted", pattern)
		}
	}
	if err := task.CheckOutputPattern(""); err != nil {
		t.Errorf("the empty pattern (no outputs) rejected: %v", err)
	}
}

// FuzzOutputPath: any pattern the launch-time split accepts appends the
// bytes fmt.Sprintf formats, for any step.
func FuzzOutputPath(f *testing.F) {
	for _, pattern := range appPatterns(f) {
		f.Add(pattern, int64(412))
	}
	f.Add("%d", int64(-7))
	f.Add("%020d", int64(math.MinInt64))
	f.Add("x%03dy", int64(5))
	f.Add("%05s", int64(1))
	f.Fuzz(func(t *testing.T, pattern string, step int64) {
		got, err := task.AppendOutputPath(nil, pattern, int(step))
		if err != nil {
			return
		}
		if pattern == "" {
			return
		}
		if want := fmt.Sprintf(pattern, int(step)); string(got) != want {
			t.Fatalf("%q, step %d: %q, want %q", pattern, step, got, want)
		}
		if strings.Count(pattern, "%") != 1 {
			t.Fatalf("%q accepted with more than one %%", pattern)
		}
	})
}

// TestProperty_StatusPath_EqualsSprintf: the exit-status path, built by
// concatenation, is what the fmt.Sprintf it replaced formats.
func TestProperty_StatusPath_EqualsSprintf(t *testing.T) {
	for _, wf := range []string{"", "GS-WORKFLOW", "MD", "a/b", "%d"} {
		for _, name := range []string{"", "LAMMPS", "Isosurface", "x.exit", "%s"} {
			if got, want := task.StatusPath(wf, name), fmt.Sprintf("status/%s/%s.exit", wf, name); got != want {
				t.Fatalf("StatusPath(%q, %q) = %q, want %q", wf, name, got, want)
			}
		}
	}
}
