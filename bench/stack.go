package main

import (
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dyflow/internal/server"
	"dyflow/internal/server/fleet"
)

// fleetWorkers and their single slot each keep executing runs at nproc = 2.
const fleetWorkers = 2

// A stack is the system under test: the coordinator embedded in-process,
// serving loopback HTTP, plus its fleet workers when the workload has them.
type stack struct {
	w       workload
	cfg     server.Config
	srv     *server.Server
	addr    string
	workers []*fleet.Worker
	// rpc, when set, wraps each fleet worker's transport (the seam
	// faultnet uses) so the traced pass can time every RPC.
	rpc func(worker int) http.RoundTripper
}

// startStack builds the coordinator on dir ("" for memory-only workloads)
// and joins the fleet.
func startStack(w workload, dir string, rpc func(int) http.RoundTripper) (*stack, error) {
	st := &stack{w: w, rpc: rpc}
	st.cfg = server.Config{
		Workers: w.Workers,
		Logger:  log.New(os.Stderr, "dyflow-serve: ", log.Lmicroseconds),
	}
	if w.Fleet {
		st.cfg.Workers = -1
	}
	if w.Durable {
		st.cfg.CkptDir = dir
	}
	if err := st.open(); err != nil {
		return nil, err
	}
	return st, nil
}

// open starts (or, on a CkptDir that already holds state, restores) the
// coordinator, binds it to a fresh loopback port and joins the fleet.
func (st *stack) open() error {
	srv, err := server.New(st.cfg)
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	st.srv, st.addr = srv, addr
	if !st.w.Fleet {
		return nil
	}
	for i := 0; i < fleetWorkers; i++ {
		opts := fleet.WorkerOptions{
			Coordinator: addr,
			Name:        fmt.Sprintf("bench-%d", i),
			Slots:       1,
			ClaimWait:   100 * time.Millisecond,
			BackoffSeed: int64(i + 1),
		}
		if st.rpc != nil {
			opts.Client = &http.Client{Timeout: 30 * time.Second, Transport: st.rpc(i)}
		}
		wk, err := fleet.JoinFleet(opts)
		if err != nil {
			st.close()
			return fmt.Errorf("join fleet: %w", err)
		}
		st.workers = append(st.workers, wk)
	}
	return nil
}

// close drains the fleet and stops the coordinator the hard way
// (Server.Close: no shutdown snapshot), so a following open on the same
// CkptDir is the crash-restore path.
func (st *stack) close() {
	for _, wk := range st.workers {
		wk.Stop()
	}
	st.workers = nil
	st.srv.Close()
}

// reopen is Server.Close then server.New on the same CkptDir; it returns
// how long New took to restore.
func (st *stack) reopen() (time.Duration, error) {
	st.close()
	t0 := time.Now()
	err := st.open()
	return time.Since(t0), err
}

// preload submits jobs in-process: the first distinct ones execute on the
// local pool, and once they are done every repeat is a cache hit that
// finishes inside Submit.
func (st *stack) preload(jobs []job, distinct int) error {
	var ids []string
	for i, j := range jobs {
		if i == distinct {
			if err := st.waitDone(ids); err != nil {
				return err
			}
		}
		s, err := st.srv.Submit(j.Tenant, j.Job)
		if err != nil {
			return fmt.Errorf("preload %d: %w", i, err)
		}
		if i < distinct {
			ids = append(ids, s.ID)
		} else if !s.Cached {
			return fmt.Errorf("preload %d: run %s was not a cache hit", i, s.ID)
		}
	}
	return nil
}

// waitDone polls in-process until every run is done.
func (st *stack) waitDone(ids []string) error {
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			s, err := st.srv.RunStatus(id)
			if err != nil {
				return err
			}
			if s.State == server.StateDone {
				break
			}
			if s.State.Terminal() || time.Now().After(deadline) {
				return fmt.Errorf("run %s is %s: %s", id, s.State, s.Error)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// treeBytes sums the regular files under dir.
func treeBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil // files vanish mid-walk during compaction; count what is there
	})
	return n
}
