package server

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dyflow/internal/exp"
)

// The read path's benchmarks (ISSUE 19): a durable coordinator holding
// 10 000 evicted done runs over 8 tenants and 16 distinct jobs — the
// history-query workload's shape — read through Handler(). The file uses
// nothing a parent commit lacks, so the same file run against the parent's
// sources gives the before numbers (CHANGES.md records both).

const benchHistoryRuns = 10000

// benchHistory preloads the population: the 16 distinct jobs execute, every
// later submission is a cache hit, and all of them end evicted.
func benchHistory(b *testing.B) http.Handler {
	b.Helper()
	s, err := New(Config{
		Workers: 2, TenantQuota: -1, CkptDir: b.TempDir(),
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	const jobs = 16
	for i := 0; i < benchHistoryRuns; i++ {
		st, err := s.Submit(fmt.Sprintf("tenant-%d", i%8), quick(int64(i%jobs)))
		if err != nil {
			b.Fatal(err)
		}
		if i >= jobs {
			continue
		}
		for deadline := time.Now().Add(30 * time.Second); !st.State.Terminal(); {
			if time.Now().After(deadline) {
				b.Fatalf("run %s stuck in %s", st.ID, st.State)
			}
			time.Sleep(time.Millisecond)
			if st, err = s.RunStatus(st.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s.Handler()
}

// benchGet serves one GET per iteration and fails on a non-200.
func benchGet(b *testing.B, h http.Handler, target func(i int) string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target(i), nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s: %d %s", target(i), rec.Code, rec.Body)
		}
	}
}

func BenchmarkListPage(b *testing.B) {
	h := benchHistory(b)
	benchGet(b, h, func(i int) string {
		return fmt.Sprintf("/v1/runs?tenant=tenant-%d&state=done&limit=100", i%8)
	})
}

func BenchmarkEvictedStatus(b *testing.B) {
	h := benchHistory(b)
	benchGet(b, h, func(i int) string {
		return fmt.Sprintf("/v1/runs/run-%06d", (i*7919)%benchHistoryRuns)
	})
}

func BenchmarkAnalytics10k(b *testing.B) {
	h := benchHistory(b)
	benchGet(b, h, func(int) string { return "/v1/analytics" })
}

// The execution path's benchmarks (ISSUE 20): distinct jobs, one at a time,
// from Submit to the run's eviction at its terminal transition, on the one
// slot of Config{Workers: 1}. Like the ones above the file uses nothing a
// parent commit lacks — the wait is a look at the resident map, which
// allocates nothing, so B/op is the run's own.

func benchLocalRun(b *testing.B, scenario string) {
	b.Helper()
	s, err := New(Config{Workers: 1, TenantQuota: -1, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Submit("bench", exp.Job{Scenario: scenario, Machine: "dt2", Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for resident := true; resident; {
			time.Sleep(20 * time.Microsecond)
			s.mu.Lock()
			_, resident = s.runs[st.ID]
			s.mu.Unlock()
		}
	}
}

func BenchmarkLocalRunQuickstart(b *testing.B) { benchLocalRun(b, exp.ScenarioQuickstart) }

func BenchmarkLocalRunXGC(b *testing.B) { benchLocalRun(b, exp.ScenarioXGC) }
