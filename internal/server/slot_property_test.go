package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/exp"
	"dyflow/internal/server/fleet"
	"dyflow/specs"
)

// A slotStep is one job of a drawn list and the artifacts a store takes
// over from the slot after it.
type slotStep struct {
	job   exp.Job
	drops []string
}

// String names the step's job without its document's bytes.
func (st slotStep) String() string {
	return fmt.Sprintf("%s/%s seed %d (own document: %v)", st.job.Scenario, st.job.Machine, st.job.Seed, st.job.XML != "")
}

// slotArtifacts are the artifact names every job carries, in drop order.
var slotArtifacts = []string{exp.ArtifactReport, exp.ArtifactGantt, exp.ArtifactPerfetto, exp.ArtifactMetrics}

// maxSlotSteps bounds a decoded job list.
const maxSlotSteps = 6

// decodeSlotSteps reads a job list from data, three bytes a job: the
// scenario and machine; whether the job brings its own document — the
// shipped one of its workflow under either machine, from specs/ — and
// which; the seed (0–3) and which artifacts are dropped after it.
func decodeSlotSteps(data []byte) []slotStep {
	var steps []slotStep
	scenarios := exp.Scenarios()
	for ; len(data) >= 3 && len(steps) < maxSlotSteps; data = data[3:] {
		j := exp.Job{Scenario: scenarios[int(data[0])%len(scenarios)], Machine: []string{"summit", "dt2"}[data[0]/128], Seed: int64(data[2] % 4)}
		if data[1]%2 == 1 {
			j.XML = shippedXML(j.Scenario, []apps.Machine{apps.Summit, apps.Deepthought2}[data[1]/128])
		}
		st := slotStep{job: j}
		for i, name := range slotArtifacts {
			if data[2]>>(2+i)&1 == 1 {
				st.drops = append(st.drops, name)
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// shippedXML is the document under specs/ of the scenario's workflow on
// m, or "" for quickstart, which has none there.
func shippedXML(scenario string, m apps.Machine) string {
	switch scenario {
	case exp.ScenarioGrayScott, exp.ScenarioOverprov:
		return specs.GrayScott(m)
	case exp.ScenarioXGC, exp.ScenarioChaos:
		return specs.XGC(m)
	case exp.ScenarioLAMMPS:
		return specs.LAMMPS(m)
	}
	return ""
}

// checkSlotEqualsFresh runs steps through one exp.Slot, dropping what each
// step drops, and each job again through a fresh exp.RunJob: every
// artifact must equal the fresh one byte for byte, and a dropped artifact
// must keep its bytes through every later job of the slot. It returns the
// fresh outcomes' artifacts, nil for a job that failed (both ways).
func checkSlotEqualsFresh(t *testing.T, steps []slotStep) []map[string][]byte {
	t.Helper()
	s := exp.NewSlot(new(exp.Docs))
	type held struct {
		step slotStep
		name string
		data []byte
		sum  [sha256.Size]byte
	}
	var dropped []held
	fresh := make([]map[string][]byte, len(steps))
	for i, st := range steps {
		out, err := s.RunJob(st.job, nil)
		ref, refErr := exp.RunJob(st.job, nil)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("step %d %v: the slot's run ended %v, a fresh one %v", i, st, err, refErr)
		}
		if err != nil {
			continue
		}
		fresh[i] = ref.Artifacts
		if len(out.Artifacts) != len(slotArtifacts) {
			t.Fatalf("step %d %v: the slot rendered %d artifacts, want %d", i, st, len(out.Artifacts), len(slotArtifacts))
		}
		for _, name := range slotArtifacts {
			if !bytes.Equal(out.Artifacts[name], ref.Artifacts[name]) {
				t.Fatalf("step %d %v: artifact %s from the slot (%d B) differs from a fresh run's (%d B)",
					i, st, name, len(out.Artifacts[name]), len(ref.Artifacts[name]))
			}
		}
		for _, name := range st.drops {
			s.Drop(name)
			dropped = append(dropped, held{st, name, out.Artifacts[name], sha256.Sum256(out.Artifacts[name])})
		}
		for _, h := range dropped {
			if sha256.Sum256(h.data) != h.sum {
				t.Fatalf("step %d %v: the slot wrote over the dropped artifact %s of %v", i, st, h.name, h.step)
			}
		}
	}
	return fresh
}

// TestProperty_ArtifactSlot_EqualsFresh: over drawn job lists — the six
// scenarios on both machines, seeds 0–3, some bringing a shipped document
// of their workflow from specs/ as their own, and drawn drops after each —
// a slot renders what a fresh RunJob renders, byte for byte, and never
// writes over an artifact it dropped (checkSlotEqualsFresh). Each list
// then runs on one coordinator through its in-process worker and a worker
// joined over HTTP: every run's artifacts are the fresh ones, and after
// every later job every blob the coordinator stored still hashes to the
// digest it was stored under.
func TestProperty_ArtifactSlot_EqualsFresh(t *testing.T) {
	lists := 6
	if testing.Short() || raceDetector {
		lists = 2
	}
	for seed := 0; seed < lists; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 3*(3+rng.Intn(maxSlotSteps-2)))
		rng.Read(data)
		steps := decodeSlotSteps(data)
		fresh := checkSlotEqualsFresh(t, steps)

		s, err := New(Config{Workers: 1, TenantQuota: -1, Logger: quietLogger})
		if err != nil {
			t.Fatal(err)
		}
		w, err := fleet.JoinFleet(fleet.WorkerOptions{Coordinator: listen(t, s), Name: "http", ClaimWait: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		type stored struct {
			run, name, digest string
		}
		var blobs []stored
		for i, st := range steps {
			if fresh[i] == nil {
				continue
			}
			sub, err := s.Submit("t", st.job)
			if err != nil {
				t.Fatal(err)
			}
			if got := await(t, s, sub.ID); got.State != StateDone {
				t.Fatalf("seed %d step %d %v ended %s: %s", seed, i, st, got.State, got.Error)
			}
			for _, name := range slotArtifacts {
				blobs = append(blobs, stored{sub.ID, name, fleet.Digest(fresh[i][name])})
			}
			for _, b := range blobs {
				data, err := s.Artifact(b.run, b.name)
				if err != nil {
					t.Fatal(err)
				}
				if got := fleet.Digest(data); got != b.digest {
					t.Fatalf("seed %d, after step %d: artifact %s of %s hashes to %s, was stored as %s",
						seed, i, b.name, b.run, got, b.digest)
				}
			}
		}
		w.Stop()
		s.Close()
	}
}

// FuzzArtifactSlot_EqualsFresh is checkSlotEqualsFresh over any job list
// decodeSlotSteps reads.
func FuzzArtifactSlot_EqualsFresh(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 1, 0b111101, 131, 129, 0b1010})
	f.Add([]byte{2, 1, 1, 2, 0, 0b111100, 5, 0, 2, 133, 1, 0b1000})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSlotEqualsFresh(t, decodeSlotSteps(data))
	})
}
