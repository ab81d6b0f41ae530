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
var xgcGolden = []jobGolden{
	{"summit", 1, 45498, 28892, map[string]string{
		ArtifactReport:   "c6b4056f24c4c3becd300a788caca55a30f90efc6252cb2f56dc363d4d24ea83",
		ArtifactGantt:    "630b1a225bae03e4206a1e816e3f74ba2abea70b2c3c79f30fecd0dd90853a95",
		ArtifactPerfetto: "8e2c9c006a284188202203f7f6416dff254cca522df5794084c9fb5f1b3ad593",
		ArtifactMetrics:  "6933b9e7293e68abf690339d057f1799d1a21fcf841e7f10729049f9069a156b",
	}},
	{"summit", 2, 45265, 28748, map[string]string{
		ArtifactReport:   "04a3e584cfa4dff61157986a0d4845756c3c0f767170421b91b59bfc7c4090cf",
		ArtifactGantt:    "5c4fbd62e2d9180eef47967326813706621348e28abc413f0985eba5306cca93",
		ArtifactPerfetto: "32bc2225a4e008d2d8cd8c990a209d1d0deb5c35e1478c5f44421fc68575a705",
		ArtifactMetrics:  "8c31084bc095573e3e65321eb678b19442ecf8661cab80b951fda9e698e27935",
	}},
	{"dt2", 1, 166042, 100852, map[string]string{
		ArtifactReport:   "5a04b67f60421ac3225e1ebae3becb66ddaed6359bae511e35ab43a3fc0e7825",
		ArtifactGantt:    "4e3aeeeffca8edadb9bd0260c91a4629de92c1dd79a0576ab868f727ce9d130b",
		ArtifactPerfetto: "81e4750dd6239ba5b7189dece45f0cdbdaf1f167b7f99a2ed335140d3c287d77",
		ArtifactMetrics:  "ca0bf156c866b53e630adb63e19cb3d727d3f6601d1ac3690934c8473d643ad6",
	}},
	{"dt2", 2, 165812, 100713, map[string]string{
		ArtifactReport:   "1fc47367daa02a812fb952689b2df0804765c999b10151ef598701ddf99d0475",
		ArtifactGantt:    "94c740f56b2a4785a4bb8ffb2e7c39ef79b7b2adcdcddd17f5f315de8ed75954",
		ArtifactPerfetto: "c6dc0f7822a66b886fdf5ea372b9355d1d88e3736ccc57ae2d0d078ded538bff",
		ArtifactMetrics:  "4aef0df88fd402ba8c1fc81fcf2999a52111bf05f7919259cf1d401327385e01",
	}},
}

// jobGolden is one (machine, seed) run of a scenario pinned by its
// artifacts' sha256 and the kernel's event and handoff counts.
type jobGolden struct {
	machine    string
	seed       int64
	dispatched uint64
	handoffs   uint64
	sha        map[string]string
}

// quickstartGolden and grayscottGolden pin the other two worlds the same
// way, recorded at the commit before the Monitor server's per-series index
// (PR 25): every world's TAUADIOS2 updates go through that server, so its
// reduction order shows up here first. Quickstart's world ignores the seed.
var quickstartGolden = []jobGolden{
	{"summit", 1, 3506, 3018, map[string]string{
		ArtifactReport:   "e5e1d13ec637f7f103b9d60c2fa77527730e2f4fbeb2f0e46166e4430050f55a",
		ArtifactGantt:    "f59f1acbd24a68ce3d01a563839405de5dcee190890301ef51bdc939e235c737",
		ArtifactPerfetto: "2e1c7b5a6b1fbef78117df60f0fa287000fcab41a284e935d99b455b7b070028",
		ArtifactMetrics:  "b5d01b50093bf6f6620db02e83c50a1617097a568757eef1a8a7114a0bbf9535",
	}},
	{"summit", 2, 3506, 3018, map[string]string{
		ArtifactReport:   "e5e1d13ec637f7f103b9d60c2fa77527730e2f4fbeb2f0e46166e4430050f55a",
		ArtifactGantt:    "f59f1acbd24a68ce3d01a563839405de5dcee190890301ef51bdc939e235c737",
		ArtifactPerfetto: "2e1c7b5a6b1fbef78117df60f0fa287000fcab41a284e935d99b455b7b070028",
		ArtifactMetrics:  "b5d01b50093bf6f6620db02e83c50a1617097a568757eef1a8a7114a0bbf9535",
	}},
	{"dt2", 1, 3506, 3018, map[string]string{
		ArtifactReport:   "e5e1d13ec637f7f103b9d60c2fa77527730e2f4fbeb2f0e46166e4430050f55a",
		ArtifactGantt:    "f59f1acbd24a68ce3d01a563839405de5dcee190890301ef51bdc939e235c737",
		ArtifactPerfetto: "2e1c7b5a6b1fbef78117df60f0fa287000fcab41a284e935d99b455b7b070028",
		ArtifactMetrics:  "1f4c33cb240794889dbf61625fcc766e000ba502b345ac953c0560aa0acd0c28",
	}},
	{"dt2", 2, 3506, 3018, map[string]string{
		ArtifactReport:   "e5e1d13ec637f7f103b9d60c2fa77527730e2f4fbeb2f0e46166e4430050f55a",
		ArtifactGantt:    "f59f1acbd24a68ce3d01a563839405de5dcee190890301ef51bdc939e235c737",
		ArtifactPerfetto: "2e1c7b5a6b1fbef78117df60f0fa287000fcab41a284e935d99b455b7b070028",
		ArtifactMetrics:  "1f4c33cb240794889dbf61625fcc766e000ba502b345ac953c0560aa0acd0c28",
	}},
}

var grayscottGolden = []jobGolden{
	{"summit", 1, 6480, 6114, map[string]string{
		ArtifactReport:   "37a3c517d999023dda0a820946cb2ddffdd663933900e64d9a801822ab2415ed",
		ArtifactGantt:    "74ded42add0f13aa43f9775fb9dd4f7331881bb57abb3aa1fb217854bdd93e28",
		ArtifactPerfetto: "6d52d021f8841e2febb9599aec906fc5ab39a08ded0dde867212d9fe2e4e1d3b",
		ArtifactMetrics:  "12ed2f2a01359aeaaa59361ec35cf5d38dee8c1bb742e49c4cfa38685e66f173",
	}},
	{"summit", 2, 6508, 6129, map[string]string{
		ArtifactReport:   "ad40de3cb8b1be707cb24aa90fa733e4237297e571a331217a4c9bd0289bcea8",
		ArtifactGantt:    "4071b9b5daaf2a90856f09c0622a72fb2d3722cc87c42e2d21a72e37dd329bf2",
		ArtifactPerfetto: "6fda762aa3211987a61e48cd47f943756498376f0a70f4523d009ca3b61b7611",
		ArtifactMetrics:  "d49ebda95679056a554cc6bb95a813e9f45aeafa7b899832017d815180c211e0",
	}},
	{"dt2", 1, 8911, 8459, map[string]string{
		ArtifactReport:   "29617bd6eeffeaf6885f1943f401012a4af97f71041f483993e27da2795a4b4b",
		ArtifactGantt:    "1560b2056fb12671f61183f387c934ba8988b7cd2ddd386469877073c26e22db",
		ArtifactPerfetto: "704392cb8100cd7a07947dd952bc81cfb8f4b1ffe018de465c32519ac1fb8dd9",
		ArtifactMetrics:  "2168edd71607a2ee70bfad4128fb850fcc085d845de5275f168ce72f3a13c2f8",
	}},
	{"dt2", 2, 8206, 7726, map[string]string{
		ArtifactReport:   "70625ff4d61620d29ba8d45132eb4474629ba96ad46ff7a0b856bfa15ff8d173",
		ArtifactGantt:    "192c7e22106df8225cdb6573494211d05f69e63557594c81c333cf25c27008b7",
		ArtifactPerfetto: "4e60081ae8b15427fd92b3dff314e168a4b94b24ff8da314e301f83ba9e3d8ea",
		ArtifactMetrics:  "e10953aa0d050eb01772f68f4d070b83d0df9ac4d1569df6ead712bc54397aa9",
	}},
}

// overprovGolden, lammpsGolden and chaosGolden pin the remaining three
// scenarios the same way, recorded at the commit before the scenario worlds
// were moved onto one driver loop: that loop decides when each world stops
// and so what its artifacts hold.
var overprovGolden = []jobGolden{
	{"summit", 1, 3714, 3201, map[string]string{
		ArtifactReport:   "aabc88ec2695d609ffd750cca55e96b1155dee676146425b447baa6b4acdeb98",
		ArtifactGantt:    "8c7d546c4ea35463514355dd39a5eb4977b659fcdccdd376f358a767e60a507c",
		ArtifactPerfetto: "b29b77bce01d0f27064ad3a784a6ee3d7adb6f63a1ea2e11d148b27d39193224",
		ArtifactMetrics:  "5898b8587782297beeb257f9f05f8e76c1d69562a8335f1081ad5898fdd3464c",
	}},
	{"summit", 2, 3625, 3138, map[string]string{
		ArtifactReport:   "aabc88ec2695d609ffd750cca55e96b1155dee676146425b447baa6b4acdeb98",
		ArtifactGantt:    "dd755085a4d14b1e25a7d836bef273beeecbe1ca94f4c79ce3ea69eddd2ca097",
		ArtifactPerfetto: "199a3652b99478a5bd1c3515aa4a344ecda433ca8dfa824522538c5265afa8c7",
		ArtifactMetrics:  "6ddfab365a7bacd3db8969e6d08b8093e6ae8378f6a133c1253fa1e27dac55ce",
	}},
	{"dt2", 1, 4924, 3729, map[string]string{
		ArtifactReport:   "3bb257b670b3fba431e3b6da4453c51b8cc2bfde9640885f9e3f78024c6c6c0e",
		ArtifactGantt:    "830292f761b8297ce8ade90a671e319ae053762b0717994db2f75ec4582d55e5",
		ArtifactPerfetto: "19d45716e547291353322995979b1a636abc18e68990e83b0833cc569b468ca3",
		ArtifactMetrics:  "c82d44b327592489672d7b96ee5519631f7d76d8fe26c2c75882f603e7d8a834",
	}},
	{"dt2", 2, 4970, 3754, map[string]string{
		ArtifactReport:   "3bb257b670b3fba431e3b6da4453c51b8cc2bfde9640885f9e3f78024c6c6c0e",
		ArtifactGantt:    "a0990775eef16ac3c62f4398cfa98ebc02958a6ad803b6c3ef6c84413a3252bf",
		ArtifactPerfetto: "68de604dd90c74bbc322adda5c67a528480b474db428281adc313b46a3674436",
		ArtifactMetrics:  "112720d53da0c9cb2683d4b367d730a07ac4c697b68dc495871c4f6bd978aa2c",
	}},
}

var lammpsGolden = []jobGolden{
	{"summit", 1, 9137, 9022, map[string]string{
		ArtifactReport:   "2b4478679b51b50e40caa3b04f4494684645ba7ad34e9704fc3367041dae0e2f",
		ArtifactGantt:    "9716869d0db8182d29f13a713998c6a6c64360d0c22b225b280e8b9cec779338",
		ArtifactPerfetto: "c0676ddb4b70f3071da63f120fd2f83fa6105df69cf9adb86cf753337e19bb90",
		ArtifactMetrics:  "3935ab660d03dcc5956c61aacd2475be69ec2ec73fba88500b8c7040d9d72dd3",
	}},
	{"summit", 2, 9153, 9030, map[string]string{
		ArtifactReport:   "2b4478679b51b50e40caa3b04f4494684645ba7ad34e9704fc3367041dae0e2f",
		ArtifactGantt:    "667180bf77023ac79157f557abedef4feecd5d71ac4843d48190c959eb92b0ac",
		ArtifactPerfetto: "53d3560636091354d02a1fbcef97a956cc0066adbb3beb8d4283ecd3c1e2ae18",
		ArtifactMetrics:  "cd8b06a07bb5172f361028c4d00c818664b9f2100d3990f8817e93a62ec0b1f1",
	}},
	{"dt2", 1, 18329, 18200, map[string]string{
		ArtifactReport:   "57449a603cd9604d9b39cd9f7489d2936f5925bdf3c993df36a554a9d7e1db05",
		ArtifactGantt:    "bcc9d13958ed39f232b26cce93a6fafc201c9f99b6bf02a832909d456cc33d01",
		ArtifactPerfetto: "054d8371939bc97bef13b93a57048f2d16adc607e9d9f4b3ea1e7ff5dc3a58d4",
		ArtifactMetrics:  "0beaf96b1702ae8ab39057fac48489059cf98abe0f6e8f84ad39125006e836ae",
	}},
	{"dt2", 2, 18150, 18081, map[string]string{
		ArtifactReport:   "57449a603cd9604d9b39cd9f7489d2936f5925bdf3c993df36a554a9d7e1db05",
		ArtifactGantt:    "64c21aa1cd2221ebe65e5511f402343af053daa9794eeffcb0ef01afafb6d232",
		ArtifactPerfetto: "ebf4852e911856f1293b8d8477700078289184fc9c7d0578a1f57d1ce01d7c50",
		ArtifactMetrics:  "2b0ec9be381df2674d38d29a2004b40f8f9f5c4ade400ca5b64f52c2cbf9b754",
	}},
}

var chaosGolden = []jobGolden{
	{"summit", 1, 48626, 37280, map[string]string{
		ArtifactReport:   "b9e11d8265c69fcf4377b9f57815fe5a8227cb265cfb2d44a517e97026676f3b",
		ArtifactGantt:    "dbc189abcc2f9d96117a054e9f419f07b9fe1fb7f4416a442ed1a6364e5ee3eb",
		ArtifactPerfetto: "eeb83820e9953ac99d92428a25d29da313a8a6bb1ec1bf35342f82b72db8e6ac",
		ArtifactMetrics:  "056a00e2a2494dd8f7324d45590d30f408848a4ac51543431e991c4010bfc4bb",
	}},
	{"summit", 2, 56978, 42794, map[string]string{
		ArtifactReport:   "88b84f888d71a8ecea1636cf4b3368f9c75efc8dc6ebca8f9e2ba5ee5874b5b0",
		ArtifactGantt:    "6bd2fb3cec1fb1f6ff8f0cddb20374217408e05b3997a44ee07fb9c79324bd79",
		ArtifactPerfetto: "911c38cb5d60385f56d8bb48c26604acd1aba6ce71ad3ab3da733127cd339e75",
		ArtifactMetrics:  "4a43f32ce35bd050932ff05d659d81c4f0f096d8cb4110cbe4fa21f852c8627e",
	}},
	{"dt2", 1, 66444, 50754, map[string]string{
		ArtifactReport:   "71f534688549c60078c0351dd9af546a5d1a42745116d6db6822a2d84eb5bee3",
		ArtifactGantt:    "7bd2a7f44a3d86221960960e408ce533d77e032529837c97439125799d39a206",
		ArtifactPerfetto: "6fe7c6fe63ca713085cf09c0140f4eb6348bc6f8898e6ee4531a9c6abb84cc3b",
		ArtifactMetrics:  "6e0c8abead1ca362c0c2666d516114ee0f950955ffc84a735015dde664c81ae6",
	}},
	{"dt2", 2, 60906, 47978, map[string]string{
		ArtifactReport:   "6c0226a33807b32cde4da537485be6b8d07ca9223b2bfc14385e105869304815",
		ArtifactGantt:    "3b24ab0d34d0c4383c1aeeac7d14e43b4480bb5b958e6ebdccac193b3dc11d07",
		ArtifactPerfetto: "72b22e3ae80a70e0ed797ce3dee26827d2c156252c212be603fa61a6725043b8",
		ArtifactMetrics:  "5350713e5286021f6313f3a2e37c820c3d40526aca68ed7519d5f65e67288063",
	}},
}

// checkGoldens runs scenario for every golden and compares.
func checkGoldens(t *testing.T, scenario string, goldens []jobGolden) {
	t.Helper()
	for _, g := range goldens {
		var w *World
		out, err := RunJob(Job{Scenario: scenario, Machine: g.machine, Seed: g.seed},
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
		recordOps(scenario, w)
	}
}

// TestQuickstartGoldenArtifacts and TestGrayScottGoldenArtifacts: the two
// cheap worlds reproduce their recorded bytes and schedules.
func TestQuickstartGoldenArtifacts(t *testing.T) {
	checkGoldens(t, ScenarioQuickstart, quickstartGolden)
}

func TestGrayScottGoldenArtifacts(t *testing.T) { checkGoldens(t, ScenarioGrayScott, grayscottGolden) }

// TestOverprovGoldenArtifacts, TestLAMMPSGoldenArtifacts and
// TestChaosGoldenArtifacts: the three worlds whose run loops stop on their
// own predicates — a grace window, a completed checkpointed restart, a
// campaign that kills and heals nodes — reproduce their recorded bytes and
// schedules.
func TestOverprovGoldenArtifacts(t *testing.T) { checkGoldens(t, ScenarioOverprov, overprovGolden) }

func TestLAMMPSGoldenArtifacts(t *testing.T) { checkGoldens(t, ScenarioLAMMPS, lammpsGolden) }

func TestChaosGoldenArtifacts(t *testing.T) { checkGoldens(t, ScenarioChaos, chaosGolden) }

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
		recordOps(ScenarioXGC, w)
	}
}

// TestXGCCheckpointColdScanCache: the disk-scan cache is derived state. An
// orchestrator checkpoint taken mid-run with every sensor's cache warm is
// byte-identical to the one a fresh orchestrator — restored from that
// checkpoint, its clients' caches cold — would take, and the restored run
// ends in the same artifacts as the uninterrupted run.
func TestXGCCheckpointColdScanCache(t *testing.T) {
	g := xgcGolden[0]
	var warm, cold []byte
	out, err := RunJob(Job{Scenario: ScenarioXGC, Machine: g.machine, Seed: g.seed}, func(w *World) error {
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
			if err := w.RestartOrchestrator(); err != nil {
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
	// The flight recorder is the world's, so the restored run's timeline
	// keeps the actuation slices from before the restore: every artifact is
	// the uninterrupted run's.
	if got := artifactSums(out.Artifacts); !reflect.DeepEqual(got, g.sha) {
		t.Errorf("restored run's artifact sha256 = %v, uninterrupted %v", got, g.sha)
	}
}
