package exp

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dyflow/internal/sim"
	"dyflow/internal/task"
)

// ganttRunes is gantt as it rendered each row through []rune: the
// reference the byte-built rows must equal.
func ganttRunes(w io.Writer, width int, end sim.Time, ivs []Interval, windows [][2]sim.Time) {
	if width < 20 {
		width = 80
	}
	if end == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	col := func(t sim.Time) int {
		c := int(int64(t) * int64(width) / int64(end))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	rows := tasks(ivs)
	nameW := 0
	for _, k := range rows {
		if len(k[1]) > nameW {
			nameW = len(k[1])
		}
	}
	fmt.Fprintf(w, "%*s  0%s%v\n", nameW, "", strings.Repeat(" ", width-len(fmt.Sprint(end))-1), end.Round(time.Second))
	for _, k := range rows {
		row := []rune(strings.Repeat("·", width))
		var notes []string
		for _, iv := range taskIntervals(ivs, k[0], k[1]) {
			e := iv.End
			if e == 0 {
				e = end
			}
			c0, c1 := col(iv.Start), col(e)
			for c := c0; c <= c1; c++ {
				row[c] = '█'
			}
			if iv.Incarnation > 0 && c0 > 0 {
				row[c0] = '▐'
			}
			state := ""
			if iv.Final == task.Failed {
				state = fmt.Sprintf(" FAILED(%d)", iv.ExitCode)
			}
			notes = append(notes, fmt.Sprintf("#%d@%dp %v-%v%s", iv.Incarnation, iv.Procs, iv.Start.Round(time.Second), e.Round(time.Second), state))
		}
		fmt.Fprintf(w, "%*s  %s  %s\n", nameW, k[1], string(row), strings.Join(notes, ", "))
	}
	if len(windows) > 0 {
		row := []rune(strings.Repeat(" ", width))
		for _, win := range windows {
			for c := col(win[0]); c <= col(win[1]); c++ {
				row[c] = '▼'
			}
		}
		fmt.Fprintf(w, "%*s  %s  (DYFLOW adjustment windows)\n", nameW, "DYFLOW", string(row))
	}
}

// TestProperty_Gantt_EqualsRunes: over seeded runs — any width, empty and
// open-ended runs, restarts, failures and plan windows — gantt writes the
// bytes the []rune rendering did.
func TestProperty_Gantt_EqualsRunes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	names := []string{"Sim", "Analysis", "Iso", "x"}
	var got, want bytes.Buffer
	for i := 0; i < 2000; i++ {
		end := sim.Time(rng.Int63n(int64(3 * time.Hour)))
		if rng.Intn(20) == 0 {
			end = 0
		}
		span := max(int64(end), 1)
		var ivs []Interval
		for j, n := 0, rng.Intn(8); j < n; j++ {
			start := sim.Time(rng.Int63n(span))
			iv := Interval{Workflow: "W", Task: names[rng.Intn(len(names))], Incarnation: rng.Intn(3),
				Procs: rng.Intn(64), Start: start, Final: task.State(rng.Intn(int(task.Failed) + 1)), ExitCode: rng.Intn(3)}
			if rng.Intn(3) > 0 {
				iv.End = start + sim.Time(rng.Int63n(span-int64(start)+1))
			}
			ivs = append(ivs, iv)
		}
		var windows [][2]sim.Time
		for j, n := 0, rng.Intn(4); j < n; j++ {
			a := sim.Time(rng.Int63n(span))
			windows = append(windows, [2]sim.Time{a, a + sim.Time(rng.Int63n(span/10+1))})
		}
		width := rng.Intn(140)
		got.Reset()
		want.Reset()
		gantt(&got, width, end, ivs, windows)
		ganttRunes(&want, width, end, ivs, windows)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("width %d, end %v, %d intervals, %d windows:\n%s\nwant\n%s", width, end, len(ivs), len(windows), got.Bytes(), want.Bytes())
		}
	}
}
