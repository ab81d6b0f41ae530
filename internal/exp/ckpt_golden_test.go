package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"dyflow/internal/ckpt"
	"dyflow/internal/core"
	"dyflow/internal/core/decision"
	"dyflow/internal/core/sensor"
)

var updateCkpt = flag.Bool("update-ckpt", false, "rewrite the checkpoint goldens in testdata/ckpt")

// ckptGolden returns the committed checkpoint name holds, or — run with
// -update-ckpt — records got as it.
func ckptGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "ckpt", name)
	if *updateCkpt {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestXGCCheckpointBytesGolden pins what an orchestrator checkpoint of xgc
// seed 1 on summit holds, byte for byte, against blobs recorded in
// testdata/ckpt, and restores them.
//
// A driver-context checkpoint (between two ticks) is taken when no stage
// is mid-round, so every bus queue in it is empty: the stages drain each
// delivery within the instant it lands. The only checkpoints that hold an
// envelope on a link are taken inside an instant, between a delivery and
// its receiver's wake — the bus's OnDepth hook runs there. The test takes
// one at the first delivery onto each Monitor endpoint and onto the
// Arbiter while it is between rounds, so the client's update batch, the
// server's metric messages and Decision's suggestion batch are pinned in
// their checkpoint encoding, and restores each into a fresh orchestrator
// built over the world's flight recorder: the restored one must checkpoint
// to the same bytes, and each queued envelope's record must turn into the
// payload its receiver reads and back into a record that encodes to the
// bytes it was restored from.
//
// A restore inside an instant does not resume the run exactly (a timer due
// at that instant is re-armed a period later), so the run-level check is
// made at a driver-context instant: the first tick at or after one minute.
// The orchestrator is killed there and its successor restored from the
// committed blob, and the run's four artifacts must equal the
// uninterrupted run's (xgcGolden[0]).
func TestXGCCheckpointBytesGolden(t *testing.T) {
	g := xgcGolden[0]
	links := []string{core.EndpointMonitorServer, core.EndpointDecision, core.EndpointArbiter}
	inInstant := map[string][]byte{}
	var tick []byte
	var world *World
	out, err := RunJob(Job{Scenario: ScenarioXGC, Machine: g.machine, Seed: g.seed}, func(w *World) error {
		world = w
		o := w.Orch
		depth := o.Bus.OnDepth
		o.Bus.OnDepth = func(to string, n int) {
			depth(to, n)
			if inInstant[to] != nil || !slices.Contains(links, to) || o != w.Orch || o.Arbiter.Busy() {
				return
			}
			blob, err := o.Checkpoint()
			if err != nil {
				t.Error(err)
			}
			inInstant[to] = blob
		}
		w.OnProgress = func(now time.Duration) error {
			if tick != nil || now < time.Minute || w.Orch.Arbiter.Busy() {
				return nil
			}
			var err error
			if tick, err = w.Orch.Checkpoint(); err != nil {
				return err
			}
			return w.restartFrom(ckptGolden(t, "xgc-summit-1-tick.ckpt", tick))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tick == nil {
		t.Fatal("the run ended before the one-minute checkpoint")
	}
	if want := ckptGolden(t, "xgc-summit-1-tick.ckpt", tick); !bytes.Equal(tick, want) {
		t.Errorf("checkpoint at the one-minute tick differs from testdata:\n%s\nwant\n%s", tick, want)
	}
	if got := artifactSums(out.Artifacts); !reflect.DeepEqual(got, g.sha) {
		t.Errorf("run restored from the committed checkpoint: artifact sha256 = %v, uninterrupted %v", got, g.sha)
	}

	for _, link := range links {
		got := inInstant[link]
		if got == nil {
			t.Fatalf("no delivery onto %s was checkpointed", link)
		}
		name := "xgc-summit-1-" + link + ".ckpt"
		want := ckptGolden(t, name, got)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: checkpoint differs from testdata:\n%s\nwant\n%s", link, got, want)
		}
		var snap core.Snapshot
		if err := ckpt.Decode(want, core.SnapshotKind, &snap); err != nil {
			t.Fatal(err)
		}
		// The world has run on, so the restored orchestrator's clock is
		// not the checkpoint's: its snapshot is compared at the
		// checkpoint's instant.
		o := core.New(world.Env, world.SV, world.orchCfg, world.orchOpts, world.Trace, world.rounds)
		if err := o.Restore(want); err != nil {
			t.Fatalf("%s: %v", link, err)
		}
		restored := o.Snapshot()
		restored.At = snap.At
		again, err := ckpt.Encode(core.SnapshotKind, restored)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: restored orchestrator checkpoints to\n%s\nwant\n%s", link, again, want)
		}
		queued := 0
		for _, ep := range snap.Bus.Endpoints {
			for i := range ep.Queue {
				env := &ep.Queue[i]
				var again []byte
				switch ep.Name {
				case core.EndpointMonitorServer:
					again, err = throughLive(env.Data, sensor.BatchRecord.Live, sensor.Batch.Record)
				case core.EndpointDecision:
					again, err = throughLiveEach(env.Data, sensor.MetricMsgRecord.Live, sensor.MetricMsg.Record)
				case core.EndpointArbiter:
					again, err = throughLiveEach(env.Data, decision.SuggestionRecord.Live, decision.Suggestion.Record)
				default:
					continue
				}
				if err != nil {
					t.Fatalf("%s: queued envelope on %s: %v", link, ep.Name, err)
				}
				if !bytes.Equal(again, env.Data) {
					t.Errorf("%s: envelope on %s re-encodes to\n%s\nrestored from\n%s", link, ep.Name, again, env.Data)
				}
				if ep.Name == link {
					queued++
				}
			}
		}
		if queued == 0 {
			t.Errorf("%s: the checkpoint holds no envelope queued on the link", link)
		}
	}
}

// throughLive decodes data as a record R, turns it into its live value
// and back into a record, and encodes that.
func throughLive[R, H any](data []byte, live func(R) (H, error), record func(H) R) ([]byte, error) {
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	h, err := live(r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(record(h))
}

// throughLiveEach is throughLive over a list of records.
func throughLiveEach[R, H any](data []byte, live func(R) (H, error), record func(H) R) ([]byte, error) {
	var rs []R
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, err
	}
	for i := range rs {
		h, err := live(rs[i])
		if err != nil {
			return nil, err
		}
		rs[i] = record(h)
	}
	return json.Marshal(rs)
}
