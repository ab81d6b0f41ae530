package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/server/fleet"
)

// goroutinesSettleTo waits for the goroutine count to come down to at most
// want: connection handlers and simulation processes that have been told to
// exit take a moment to be gone.
func goroutinesSettleTo(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			t.Fatalf("%s: %d goroutines, want at most %d:\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerReleasesFinishedWorlds: a serving coordinator holds nothing of a
// run that has ended. Two hundred distinct quickstart runs and one run
// cancelled mid-flight go through the HTTP API, on the local pool and on a
// two-worker fleet; afterwards, with the server still up, the process has
// the goroutines it had when idle before them (each world leaked would be
// six), and after shutdown the ones it had before the server existed.
func TestServerReleasesFinishedWorlds(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 40
	}
	for _, mode := range []string{"pool", "fleet"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			tr := &http.Transport{}
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			atStart := runtime.NumGoroutine()

			cfg := Config{Workers: 2, TenantQuota: -1}
			if mode == "fleet" {
				// A worker learns of a cancel from its next heartbeat, a
				// third of the TTL away: this one comes inside the run.
				cfg = Config{Workers: -1, TenantQuota: -1, LeaseTTL: 300 * time.Millisecond}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var workers []*fleet.Worker
			if mode == "fleet" {
				for i := 0; i < 2; i++ {
					w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: addr, Name: fmt.Sprint("w", i),
						ClaimWait: 20 * time.Millisecond, Client: client})
					if err != nil {
						t.Fatal(err)
					}
					workers = append(workers, w)
				}
			}
			base := "http://" + addr

			call := func(method, path string, body any, want int) Status {
				t.Helper()
				var rd io.Reader
				if body != nil {
					data, _ := json.Marshal(body)
					rd = bytes.NewReader(data)
				}
				req, _ := http.NewRequest(method, base+path, rd)
				resp, err := client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				data, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != want {
					t.Fatalf("%s %s: %s: %s", method, path, resp.Status, data)
				}
				var st Status
				if err := json.Unmarshal(data, &st); err != nil {
					t.Fatalf("%s %s: %v in %s", method, path, err, data)
				}
				return st
			}
			awaitHTTP := func(id string, running bool) Status {
				t.Helper()
				deadline := time.Now().Add(60 * time.Second)
				for {
					st := call("GET", "/v1/runs/"+id, nil, http.StatusOK)
					if st.State.Terminal() || (running && st.State == StateRunning) {
						return st
					}
					if time.Now().After(deadline) {
						t.Fatalf("run %s stuck in %s", id, st.State)
					}
					time.Sleep(time.Millisecond)
				}
			}
			submit := func(job exp.Job) string {
				t.Helper()
				return call("POST", "/v1/runs", SubmitRequest{Tenant: "alice", Job: job}, http.StatusAccepted).ID
			}

			// One run first, so that whatever the process starts lazily —
			// keep-alive connections, worker loops past their first claim —
			// is part of the idle count and not mistaken for a leak.
			if st := awaitHTTP(submit(quick(1000)), false); st.State != StateDone {
				t.Fatalf("warm-up run ended %s: %s", st.State, st.Error)
			}
			time.Sleep(50 * time.Millisecond)
			idle := runtime.NumGoroutine()

			// Waves of 16 keep the queue under its 64-run bound.
			for next := 0; next < runs; {
				var ids []string
				for ; len(ids) < 16 && next < runs; next++ {
					ids = append(ids, submit(quick(int64(next))))
				}
				for _, id := range ids {
					if st := awaitHTTP(id, false); st.State != StateDone || st.Cached {
						t.Fatalf("run %s ended %s (cached %v): %s", id, st.State, st.Cached, st.Error)
					}
				}
			}
			// The cancelled one is an xgc world — tens of thousands of
			// events, so it is still running when the cancel arrives.
			id := submit(exp.Job{Scenario: exp.ScenarioXGC, Machine: "dt2", Seed: 1})
			awaitHTTP(id, true)
			call("POST", "/v1/runs/"+id+"/cancel", nil, http.StatusOK)
			if st := awaitHTTP(id, false); st.State != StateCanceled {
				t.Fatalf("cancelled run ended %s: %s", st.State, st.Error)
			}

			// A few either way for connections the two sides open and drop;
			// two hundred leaked worlds would be twelve hundred.
			goroutinesSettleTo(t, "serving, after the runs", idle+8)

			for _, w := range workers {
				w.Stop()
			}
			s.Close()
			tr.CloseIdleConnections()
			goroutinesSettleTo(t, "after shutdown", atStart)
		})
	}
}
