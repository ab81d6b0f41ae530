package runstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Satellite: for randomized run populations, every filtered/paginated
// query must match a naive in-memory filter — no missing, duplicated,
// or misordered runs across page boundaries.

func TestQueryMatchesNaiveFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1F70))
	tenants := []string{"t0", "t1", "t2", ""}
	scenarios := []string{"quickstart", "grayscott", "xgc", ""}
	states := []string{"queued", "running", "done", "failed", "canceled"}

	for trial := 0; trial < 8; trial++ {
		dirs := []string{"", t.TempDir()}
		dir := dirs[trial%2]
		opt := Options{Dir: dir, SegmentBytes: int64(512 + rng.Intn(4096)), CompactMinRecords: 1 << 30}
		s, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}

		// Random population: random attributes, clustered submit times
		// (duplicate SubmittedAtNs values stress the (ns, id) tiebreak),
		// some runs re-appended (supersede), some tombstoned.
		n := 50 + rng.Intn(300)
		live := make(map[string]Meta)
		for i := 0; i < n; i++ {
			m := Meta{
				ID:            fmt.Sprintf("run-%06d", i),
				Tenant:        tenants[rng.Intn(len(tenants))],
				Scenario:      scenarios[rng.Intn(len(scenarios))],
				State:         states[rng.Intn(len(states))],
				SubmittedAtNs: int64(1_000_000_000 + rng.Intn(50)*1_000_000),
			}
			if err := s.Append(m, mkDoc(i, int64(i))); err != nil {
				t.Fatal(err)
			}
			live[m.ID] = m
		}
		for i := 0; i < n/4; i++ {
			id := fmt.Sprintf("run-%06d", rng.Intn(n))
			m := live[id]
			m.State = states[rng.Intn(len(states))]
			if err := s.Append(m, nil); err != nil {
				t.Fatal(err)
			}
			live[id] = m
		}
		for i := 0; i < n/10; i++ {
			id := fmt.Sprintf("run-%06d", rng.Intn(n))
			m, ok := live[id]
			if !ok {
				continue
			}
			if err := s.Append(Meta{ID: id, Tenant: m.Tenant, Tombstone: true}, nil); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
		if trial%4 >= 2 && dir != "" {
			// Half the on-disk trials also exercise recovery + compaction
			// before querying.
			s.Close()
			if s, err = Open(opt); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}

		// Random queries, each fully paginated and checked against the
		// naive filter over the live population.
		for qi := 0; qi < 20; qi++ {
			q := Query{
				Tenant:   tenants[rng.Intn(len(tenants))],
				Scenario: scenarios[rng.Intn(len(scenarios))],
				State:    states[rng.Intn(len(states))],
			}
			if rng.Intn(2) == 0 {
				q.Scenario = ""
			}
			if rng.Intn(2) == 0 {
				q.State = ""
			}
			if rng.Intn(3) == 0 {
				q.Since = time.Unix(0, int64(1_000_000_000+rng.Intn(50)*1_000_000))
			}
			if rng.Intn(3) == 0 {
				q.Until = time.Unix(0, int64(1_000_000_000+rng.Intn(50)*1_000_000))
			}
			limit := 1 + rng.Intn(17)

			var want []Meta
			for _, m := range live {
				if q.Tenant != "" && m.Tenant != q.Tenant {
					continue
				}
				if q.Scenario != "" && m.Scenario != q.Scenario {
					continue
				}
				if q.State != "" && m.State != q.State {
					continue
				}
				if !q.Since.IsZero() && m.SubmittedAtNs < q.Since.UnixNano() {
					continue
				}
				if !q.Until.IsZero() && m.SubmittedAtNs > q.Until.UnixNano() {
					continue
				}
				want = append(want, m)
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].SubmittedAtNs != want[j].SubmittedAtNs {
					return want[i].SubmittedAtNs < want[j].SubmittedAtNs
				}
				return want[i].ID < want[j].ID
			})

			var got []Meta
			tok := ""
			pages := 0
			for {
				pq := q
				pq.Limit = limit
				pq.PageToken = tok
				page, err := s.Query(pq)
				if err != nil {
					t.Fatalf("trial %d query %d: %v", trial, qi, err)
				}
				if len(page.Items) > limit {
					t.Fatalf("trial %d query %d: page of %d exceeds limit %d", trial, qi, len(page.Items), limit)
				}
				got = append(got, page.Items...)
				pages++
				if page.NextPageToken == "" {
					break
				}
				if len(page.Items) == 0 {
					t.Fatalf("trial %d query %d: empty page with a next token", trial, qi)
				}
				tok = page.NextPageToken
				if pages > n+10 {
					t.Fatalf("trial %d query %d: pagination did not terminate", trial, qi)
				}
			}

			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (%+v limit=%d): got %d runs, want %d",
					trial, qi, q, limit, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("trial %d query %d: position %d = %s, want %s (missing/dup/misorder across pages)",
						trial, qi, i, got[i].ID, want[i].ID)
				}
				if got[i].State != want[i].State {
					t.Fatalf("trial %d query %d: %s state = %s, want %s",
						trial, qi, got[i].ID, got[i].State, want[i].State)
				}
			}
		}
		s.Close()
	}
}
