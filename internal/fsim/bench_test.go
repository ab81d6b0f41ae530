package fsim

import (
	"fmt"
	"testing"

	"dyflow/internal/sim"
)

// BenchmarkFSWrite: the filesystem's per-step operations on a filesystem
// of n output files, as an xgc task meets them —
//
//   - create-at-tail: an output step's new file, sorting after every other
//     (removed again, so the filesystem stays at n files);
//   - rewrite: an existing file written again with its two variables;
//   - writevar: one variable of an existing file updated (the progress and
//     checkpoint counters);
//   - lookup: an ERRORSTATUS poll finding its path.
func BenchmarkFSWrite(b *testing.B) {
	for _, n := range []int{10, 1000} {
		fs := New(sim.New(1))
		paths := make([]string, n+1)
		for i := range paths {
			paths[i] = fmt.Sprintf("out/xgca.%05d.bp", i)
		}
		for _, p := range paths[:n] {
			fs.Write(p, Var{"step", 1}, Var{"errnorm", 0.5})
		}
		mid, tail := paths[n/2], paths[n]
		b.Run(fmt.Sprintf("create-at-tail/files=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs.Write(tail, Var{"step", float64(i)}, Var{"errnorm", 0.5})
				fs.Remove(tail)
			}
		})
		b.Run(fmt.Sprintf("rewrite/files=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs.Write(mid, Var{"step", float64(i)}, Var{"errnorm", 0.5})
			}
		})
		b.Run(fmt.Sprintf("writevar/files=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs.WriteVar(mid, "step", float64(i))
			}
		})
		b.Run(fmt.Sprintf("lookup/files=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fs.Lookup(mid) == nil {
					b.Fatal("lost ", mid)
				}
			}
		})
	}
}
