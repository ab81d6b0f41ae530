package runstore

import (
	"fmt"
	"testing"
	"time"
)

// benchDoc approximates the document an older coordinator wrote beside
// every record (~300 bytes).
func benchDoc(i int) []byte {
	return []byte(fmt.Sprintf(`{"id":"run-%06d","tenant":"t%d","state":"done","job":{"scenario":"quickstart","machine":"small","seed":%d},"artifacts":{"report":"sha256:%064d","gantt":"sha256:%064d"},"sim_end_ns":120000000000,"submitted_at":"2026-08-08T00:00:00Z","finished_at":"2026-08-08T00:02:00Z"}`,
		i, i%8, i, i, i+1))
}

func benchMeta(i int) Meta {
	return Meta{
		ID:            fmt.Sprintf("run-%06d", i),
		Tenant:        fmt.Sprintf("t%d", i%8),
		Scenario:      []string{"quickstart", "grayscott", "xgc", "lammps"}[i%4],
		Key:           fmt.Sprintf("key-%06d", i),
		State:         []string{"done", "failed", "done", "done", "canceled"}[i%5],
		Terminal:      true,
		SubmittedAtNs: int64(1_000_000_000 + i*1_000_000),
		FinishedAtNs:  int64(1_000_000_000 + i*1_000_000 + 5_000_000),
		ArtifactBytes: 4096,
	}
}

// BenchmarkIngest measures raw append throughput to the segmented log.
func BenchmarkIngest(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := s.Append(benchMeta(i), benchDoc(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "appends/s")
	}
}

// populate fills a store with n terminal runs (untimed).
func populate(b *testing.B, s *Store, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(benchMeta(i), benchDoc(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexedQuery100k is the acceptance benchmark: an indexed
// filtered query (tenant + state + time range, limit 100) over a store
// holding 100k runs. ns/op must stay under 10ms.
func BenchmarkIndexedQuery100k(b *testing.B) {
	const n = 100_000
	s, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	populate(b, s, n)
	q := Query{
		Tenant: "t3",
		State:  "done",
		Since:  time.Unix(0, benchMeta(n/4).SubmittedAtNs),
		Until:  time.Unix(0, benchMeta(3*n/4).SubmittedAtNs),
		Limit:  100,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var items int
	for i := 0; i < b.N; i++ {
		page, err := s.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		items += len(page.Items)
	}
	b.StopTimer()
	if items == 0 {
		b.Fatal("query matched nothing; benchmark is vacuous")
	}
	b.ReportMetric(float64(items)/float64(b.N), "items/query")
}

// BenchmarkCompaction measures live-record rewrite throughput: 100k
// records across sealed segments, half superseded (dead).
func BenchmarkCompaction(b *testing.B) {
	const n = 50_000
	b.ReportAllocs()
	var records, secs float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 4 << 20, CompactMinRecords: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		populate(b, s, n)
		populate(b, s, n) // supersede every run once: 50% dead
		total := float64(s.Stats().TotalRecords)
		b.StartTimer()
		start := time.Now()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
		secs += time.Since(start).Seconds()
		records += total
		b.StopTimer()
		if s.Stats().LiveRecords != n {
			b.Fatalf("compaction lost records: %d live", s.Stats().LiveRecords)
		}
		s.Close()
		b.StartTimer()
	}
	if secs > 0 {
		b.ReportMetric(records/secs, "records/s")
	}
}
