package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dyflow/internal/apps"
)

// TestScenarioDeterminism: the same seed reproduces a byte-identical trace
// of the full Gray-Scott scenario (Gantt + plan summary).
func TestScenarioDeterminism(t *testing.T) {
	render := func() string {
		res, err := RunGrayScott(99, apps.Summit, true)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.W.Rec.Gantt(&buf, 120)
		res.W.Rec.PlanSummary(&buf)
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("traces diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestShapeAcrossSeeds: the Figure 8 shape (two adaptations, Isosurface
// 20->40->60, PDF then FFT victimized) is not a single-seed accident.
func TestShapeAcrossSeeds(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		res, err := RunGrayScott(seed, apps.Summit, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.IsoSizes) != 3 || res.IsoSizes[0] != 20 || res.IsoSizes[1] != 40 || res.IsoSizes[2] != 60 {
			t.Errorf("seed %d: Isosurface sizes = %v", seed, res.IsoSizes)
		}
		if len(res.Victims) != 2 {
			t.Errorf("seed %d: victims = %v", seed, res.Victims)
			continue
		}
		if len(res.Victims[0]) != 1 || res.Victims[0][0] != "PDF_Calc" ||
			len(res.Victims[1]) != 1 || res.Victims[1][0] != "FFT" {
			t.Errorf("seed %d: victims = %v", seed, res.Victims)
		}
		if !res.Completed || res.Makespan > res.TimeLimit {
			t.Errorf("seed %d: completed=%v makespan=%v", seed, res.Completed, res.Makespan)
		}
	}
}

// TestXGCShapeAcrossSeeds: the alternation's event sequence is stable.
func TestXGCShapeAcrossSeeds(t *testing.T) {
	for seed := int64(2); seed <= 3; seed++ {
		res, err := RunXGC(seed, apps.Summit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.XGCaStarts != 3 {
			t.Errorf("seed %d: XGCa starts = %d", seed, res.XGCaStarts)
		}
		if res.FinalStep <= 500 || res.FinalStep > 520 {
			t.Errorf("seed %d: final step = %d", seed, res.FinalStep)
		}
		var kinds []string
		for _, ev := range res.Events {
			kinds = append(kinds, ev.Kind)
		}
		want := []string{"start-xgca", "start-xgc1", "start-xgca", "switch", "start-xgca", "stop"}
		if len(kinds) != len(want) {
			t.Errorf("seed %d: events = %v", seed, kinds)
			continue
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Errorf("seed %d: events = %v", seed, kinds)
				break
			}
		}
	}
}

// xgcGolden pins the xgc job's full output — the four artifacts by sha256
// plus the kernel's event and handoff counts — as recorded at the commit
// before disk-scan polling was indexed and cached (PR 14). The scan path is
// pure bookkeeping: any drift here means it changed what a sensor read or
// when, which would also change the campaign service's cache identity.
var xgcGolden = []struct {
	machine    string
	seed       int64
	dispatched uint64
	handoffs   uint64
	sha        map[string]string
}{
	{"summit", 1, 45564, 28958, map[string]string{
		ArtifactReport:   "c6b4056f24c4c3becd300a788caca55a30f90efc6252cb2f56dc363d4d24ea83",
		ArtifactGantt:    "630b1a225bae03e4206a1e816e3f74ba2abea70b2c3c79f30fecd0dd90853a95",
		ArtifactPerfetto: "8e2c9c006a284188202203f7f6416dff254cca522df5794084c9fb5f1b3ad593",
		ArtifactMetrics:  "6933b9e7293e68abf690339d057f1799d1a21fcf841e7f10729049f9069a156b",
	}},
	{"summit", 2, 45330, 28813, map[string]string{
		ArtifactReport:   "04a3e584cfa4dff61157986a0d4845756c3c0f767170421b91b59bfc7c4090cf",
		ArtifactGantt:    "5c4fbd62e2d9180eef47967326813706621348e28abc413f0985eba5306cca93",
		ArtifactPerfetto: "32bc2225a4e008d2d8cd8c990a209d1d0deb5c35e1478c5f44421fc68575a705",
		ArtifactMetrics:  "8c31084bc095573e3e65321eb678b19442ecf8661cab80b951fda9e698e27935",
	}},
	{"dt2", 1, 166298, 101108, map[string]string{
		ArtifactReport:   "5a04b67f60421ac3225e1ebae3becb66ddaed6359bae511e35ab43a3fc0e7825",
		ArtifactGantt:    "4e3aeeeffca8edadb9bd0260c91a4629de92c1dd79a0576ab868f727ce9d130b",
		ArtifactPerfetto: "81e4750dd6239ba5b7189dece45f0cdbdaf1f167b7f99a2ed335140d3c287d77",
		ArtifactMetrics:  "ca0bf156c866b53e630adb63e19cb3d727d3f6601d1ac3690934c8473d643ad6",
	}},
	{"dt2", 2, 166067, 100968, map[string]string{
		ArtifactReport:   "1fc47367daa02a812fb952689b2df0804765c999b10151ef598701ddf99d0475",
		ArtifactGantt:    "94c740f56b2a4785a4bb8ffb2e7c39ef79b7b2adcdcddd17f5f315de8ed75954",
		ArtifactPerfetto: "c6dc0f7822a66b886fdf5ea372b9355d1d88e3736ccc57ae2d0d078ded538bff",
		ArtifactMetrics:  "4aef0df88fd402ba8c1fc81fcf2999a52111bf05f7919259cf1d401327385e01",
	}},
}

func artifactSums(arts map[string][]byte) map[string]string {
	sums := make(map[string]string, len(arts))
	for name, b := range arts {
		sums[name] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return sums
}

// TestXGCGoldenArtifacts: the xgc job reproduces the recorded bytes and
// schedule for seeds 1 and 2 on both machines.
func TestXGCGoldenArtifacts(t *testing.T) {
	for _, g := range xgcGolden {
		if testing.Short() && g.machine == "dt2" {
			continue // the dt2 world is ~4x the events
		}
		var w *World
		out, err := RunJob(Job{Scenario: ScenarioXGC, Machine: g.machine, Seed: g.seed},
			func(x *World) error { w = x; return nil })
		if err != nil {
			t.Fatalf("%s seed %d: %v", g.machine, g.seed, err)
		}
		if d, h := w.Sim.Dispatched(), w.Sim.Handoffs(); d != g.dispatched || h != g.handoffs {
			t.Errorf("%s seed %d: dispatched=%d handoffs=%d, golden %d/%d", g.machine, g.seed, d, h, g.dispatched, g.handoffs)
		}
		if got := artifactSums(out.Artifacts); !reflect.DeepEqual(got, g.sha) {
			t.Errorf("%s seed %d: artifact sha256 = %v, golden %v", g.machine, g.seed, got, g.sha)
		}
	}
}

// TestXGCCheckpointColdScanCache: the disk-scan cache is derived state. An
// orchestrator checkpoint taken mid-run with every sensor's cache warm is
// byte-identical to the one a fresh orchestrator — restored from that
// checkpoint, its clients' caches cold — would take, and the restored run
// ends in the same artifacts as it did before the cache existed.
func TestXGCCheckpointColdScanCache(t *testing.T) {
	g := xgcGolden[0]
	dir := t.TempDir()
	var warm, cold []byte
	out, err := RunJob(Job{Scenario: ScenarioXGC, Machine: g.machine, Seed: g.seed}, func(w *World) error {
		if err := w.AttachCheckpointStore(dir); err != nil {
			return err
		}
		w.OnProgress = func(now time.Duration) error {
			// Mid-run: XGC1's second incarnation is writing output files
			// and every DISKSCAN worker has polled for minutes.
			if warm != nil || now < 15*time.Minute || w.Orch.Arbiter.Busy() {
				return nil
			}
			var err error
			if warm, err = json.Marshal(w.Orch.Snapshot()); err != nil {
				return err
			}
			if err := w.CrashOrchestrator(); err != nil {
				return err
			}
			if err := w.RestoreOrchestrator(); err != nil {
				return err
			}
			cold, err = json.Marshal(w.Orch.Snapshot())
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		t.Fatal("the run ended before the checkpoint instant")
	}
	if !bytes.Contains(warm, []byte(`"phase":"interval"`)) {
		t.Fatalf("checkpoint holds no parked poll worker:\n%s", warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("checkpoint differs between warm and cold scan cache:\n--- warm ---\n%s\n--- cold ---\n%s", warm, cold)
	}
	// The perfetto timeline draws its actuation slices from the live
	// orchestrator's executor, so a restored run's lacks the ones before the
	// restore — with or without a scan cache. Its hash is the one the parent
	// commit produces for this same kill instant.
	want := map[string]string{ArtifactPerfetto: "3b7d091c40bc3e6625af64f7d6441e257b98de98b2b08a61a11ba686b8697736"}
	for _, name := range []string{ArtifactReport, ArtifactGantt, ArtifactMetrics} {
		want[name] = g.sha[name]
	}
	if got := artifactSums(out.Artifacts); !reflect.DeepEqual(got, want) {
		t.Errorf("restored run's artifact sha256 = %v, want %v", got, want)
	}
}
