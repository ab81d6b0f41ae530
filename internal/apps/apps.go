// Package apps provides calibrated simulation models of the scientific
// applications the paper evaluates DYFLOW with (§4.2):
//
//   - XGC1/XGCa: loosely coupled gyrokinetic particle-in-cell codes that
//     alternate runs of 100 timesteps, exchanging state via restart files
//     on disk (XGC1 runs ~2.5x slower than XGCa);
//   - Gray-Scott: a reaction-diffusion MiniApp tightly coupled in situ to
//     four analyses of very different cost profiles (Isosurface, Rendering,
//     FFT, PDF_Calc);
//   - LAMMPS: a molecular-dynamics simulation tightly coupled to three
//     analyses (CNA_Calc, RDF_Calc, CS_Calc) reading every 10th step.
//
// Each builder returns the Cheetah-style workflow composition for one of
// the two evaluation machines. Step-time parameters are calibrated so the
// runtime dynamics the paper reports — who bottlenecks whom, which
// adaptations fire, roughly how long responses take — reproduce in virtual
// time; absolute constants are documented inline.
package apps

import (
	"time"

	"dyflow/internal/fsim"
	"dyflow/internal/task"
	"dyflow/internal/wms"
)

// Machine selects one of the paper's two evaluation clusters.
type Machine int

const (
	// Summit is the ORNL Summit preset (42 usable cores/node).
	Summit Machine = iota
	// Deepthought2 is the UMD Deepthought2 preset (20 cores/node).
	Deepthought2
)

// String returns the machine name.
func (m Machine) String() string {
	if m == Summit {
		return "Summit"
	}
	return "Deepthought2"
}

// Workflow IDs, matching the paper's XML examples.
const (
	XGCWorkflowID       = "FUSION-WORKFLOW"
	GrayScottWorkflowID = "GS-WORKFLOW"
	LAMMPSWorkflowID    = "MD-WORKFLOW"
)

// XGCProgressKey is the shared global-timestep counter both XGC codes
// advance (the alternation contract: XGCa picks up where XGC1 stopped).
const XGCProgressKey = "progress/fusion"

// XGCRestartScript is the user script run before (re)starting XGC1 to set
// its inputs from XGCa's last output (paper: restart-xgc1.sh, the reason
// XGC1's start response is seconds rather than sub-second).
const XGCRestartScript = "restart-xgc1.sh"

// XGCRestartScriptCost is the script's runtime.
const XGCRestartScriptCost = 3800 * time.Millisecond

// XGCConfig describes one machine's Table 1 run configuration.
type XGCConfig struct {
	Procs        int
	ProcsPerNode int
	Threads      int
	StepsPerRun  int
	Particles    int
	// XGC1Step / XGCaStep are the calibrated per-timestep durations at the
	// configured process count (XGC1 ~2.5x XGCa).
	XGC1Step time.Duration
	XGCaStep time.Duration
	// Nodes is the allocation size.
	Nodes int
	// CoresPerProc is each process's core footprint: ceil(threads / SMT
	// width). On Summit 10 threads over 4-way SMT cores round to 3 cores,
	// so 14 processes fill a 42-core node; only one XGC code fits the
	// allocation at a time and the other waits for its resources.
	CoresPerProc int
}

// XGCConfigFor returns Table 1's configuration for the machine. The paper
// prints Summit's numbers (192 processes at 14 per node, 10 threads, 100
// steps/run, 250k particles/process); the Deepthought2 column is sized to
// that machine's 20-core nodes.
func XGCConfigFor(m Machine) XGCConfig {
	if m == Summit {
		return XGCConfig{
			Procs: 192, ProcsPerNode: 14, Threads: 10,
			StepsPerRun: 100, Particles: 250000,
			XGC1Step: 5 * time.Second, XGCaStep: 2 * time.Second,
			Nodes: 14, CoresPerProc: 3,
		}
	}
	return XGCConfig{
		Procs: 100, ProcsPerNode: 10, Threads: 4,
		StepsPerRun: 100, Particles: 250000,
		XGC1Step: 20 * time.Second, XGCaStep: 8 * time.Second,
		Nodes: 10, CoresPerProc: 2,
	}
}

// XGCWorkflow composes the loosely coupled XGC1/XGCa alternation workflow.
// Both codes write an output file every global timestep (the NSTEPS
// DISKSCAN source) and share the global progress counter. XGCa's outputs
// also carry a synthetic error norm for the extension ERROR sensor (the
// paper's real error estimator is "ongoing research").
func XGCWorkflow(m Machine) *wms.WorkflowSpec {
	cfg := XGCConfigFor(m)
	mk := func(name string, step time.Duration, autoStart bool, script string) wms.TaskConfig {
		spec := task.Spec{
			Name:     name,
			Workflow: XGCWorkflowID,
			Cost: task.Cost{
				Serial: step / 10,
				Work:   time.Duration(cfg.Procs) * (step - step/10),
				Noise:  0.02,
			},
			TotalSteps:    cfg.StepsPerRun,
			OutputEvery:   1,
			OutputPattern: "out/" + lower(name) + ".%05d.bp",
			ProgressKey:   XGCProgressKey,
			StartupDelay:  time.Second,
		}
		if name == "XGCA" {
			spec.OutputVars = func(dst []fsim.Var, globalStep int) []fsim.Var {
				// Synthetic error accumulation: grows with simulated time
				// since the last XGC1 (full-physics) segment.
				return append(dst, fsim.Var{Name: "errnorm", Value: 0.002 * float64(globalStep%500)})
			}
		}
		return wms.TaskConfig{
			Spec:         spec,
			Procs:        cfg.Procs,
			ProcsPerNode: cfg.ProcsPerNode,
			CoresPerProc: cfg.CoresPerProc,
			AutoStart:    autoStart,
			StartScript:  script,
		}
	}
	return &wms.WorkflowSpec{
		ID: XGCWorkflowID,
		Tasks: []wms.TaskConfig{
			mk("XGC1", cfg.XGC1Step, true, XGCRestartScript),
			mk("XGCA", cfg.XGCaStep, false, ""),
		},
	}
}

func lower(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c >= 'A' && c <= 'Z' {
			out[i] = c + 'a' - 'A'
		}
	}
	return string(out)
}

// GSTaskConfig describes one Gray-Scott task's Table 2 shape.
type GSTaskConfig struct {
	Procs        int
	ProcsPerNode int
}

// GrayScottConfig is Table 2's initial (under-provisioned) configuration.
type GrayScottConfig struct {
	GrayScott  GSTaskConfig
	Isosurface GSTaskConfig
	Rendering  GSTaskConfig
	FFT        GSTaskConfig
	PDFCalc    GSTaskConfig
	TotalSteps int
	TimeLimit  time.Duration
	Nodes      int
}

// GrayScottConfigFor returns Table 2 for the machine. Summit matches the
// paper exactly (34+2+2+2+2 = 42 cores/node over 10 nodes). On
// Deepthought2 the paper's printed shapes (16+2+1+1+1 = 21) exceed the
// 20-core nodes unless SMT is used; we place Isosurface at 1 per node so
// every node carries exactly 20 processes — documented in DESIGN.md.
func GrayScottConfigFor(m Machine) GrayScottConfig {
	if m == Summit {
		return GrayScottConfig{
			GrayScott:  GSTaskConfig{340, 34},
			Isosurface: GSTaskConfig{20, 2},
			Rendering:  GSTaskConfig{20, 2},
			FFT:        GSTaskConfig{20, 2},
			PDFCalc:    GSTaskConfig{20, 2},
			TotalSteps: 50,
			TimeLimit:  30 * time.Minute,
			Nodes:      10,
		}
	}
	return GrayScottConfig{
		GrayScott:  GSTaskConfig{320, 16},
		Isosurface: GSTaskConfig{20, 1},
		Rendering:  GSTaskConfig{20, 1},
		FFT:        GSTaskConfig{20, 1},
		PDFCalc:    GSTaskConfig{20, 1},
		TotalSteps: 50,
		TimeLimit:  35 * time.Minute,
		Nodes:      20,
	}
}

// Gray-Scott stream names.
const (
	GSOutStream = "gs.out"  // simulation output consumed by the analyses
	GSIsoStream = "iso.out" // isosurfaces consumed by Rendering
)

// GrayScottWorkflow composes the tightly coupled Gray-Scott workflow.
// Calibration (Summit, per-timestep at initial sizes):
//
//   - Gray-Scott itself computes in ~10 s but is gated by its slowest
//     consumer through the 1-deep staging buffers;
//   - Isosurface is the bottleneck: ~45 s at 20 procs, ~37 s at 40, ~34 s
//     at 60 (serial 29 s + 320 s/procs) — so INC_ON_PACE's 36 s threshold
//     fires twice, exactly as in Figures 8/9, and the post-fix pace sits
//     inside the desired [24 s, 36 s] band;
//   - Rendering (~15 s), FFT (~30 s), PDF_Calc (~5 s) at 20 procs.
//
// All tasks are TAU-instrumented (Profile) — the PACE sensor reads their
// per-rank loop times.
func GrayScottWorkflow(m Machine) *wms.WorkflowSpec {
	cfg := GrayScottConfigFor(m)
	mk := func(name string, tc GSTaskConfig, serial, work time.Duration, consumes, produces string) wms.TaskConfig {
		return wms.TaskConfig{
			Spec: task.Spec{
				Name:         name,
				Workflow:     GrayScottWorkflowID,
				Cost:         task.Cost{Serial: serial, Work: work, Noise: 0.03},
				ConsumesFrom: consumes,
				ConsumeBuf:   1,
				ProducesTo:   produces,
				Profile:      true,
				StartupDelay: 2 * time.Second,
			},
			Procs:        tc.Procs,
			ProcsPerNode: tc.ProcsPerNode,
			AutoStart:    true,
		}
	}
	var gs, iso, rend, fft, pdf wms.TaskConfig
	if m == Summit {
		// Summit calibration: Isosurface 45 s at 20 procs, 37 s at 40,
		// 34.3 s at 60 — two INC_ON_PACE events against the 36 s ceiling.
		gs = mk("GrayScott", cfg.GrayScott, 2*time.Second, 2720*time.Second, "", GSOutStream)
		iso = mk("Isosurface", cfg.Isosurface, 29*time.Second, 320*time.Second, GSOutStream, GSIsoStream)
		rend = mk("Rendering", cfg.Rendering, time.Second, 280*time.Second, GSIsoStream, "")
		fft = mk("FFT", cfg.FFT, 5*time.Second, 500*time.Second, GSOutStream, "")
		pdf = mk("PDF_Calc", cfg.PDFCalc, time.Second, 80*time.Second, GSOutStream, "")
	} else {
		// Deepthought2 calibration: Isosurface 65 s at 20 procs, 41.7 s at
		// 60 — a single adaptation (adjust-by 40) against the 42 s
		// ceiling, absorbing both PDF_Calc's and FFT's cores.
		gs = mk("GrayScott", cfg.GrayScott, 2*time.Second, 4480*time.Second, "", GSOutStream)
		iso = mk("Isosurface", cfg.Isosurface, 30*time.Second, 700*time.Second, GSOutStream, GSIsoStream)
		rend = mk("Rendering", cfg.Rendering, 2*time.Second, 360*time.Second, GSIsoStream, "")
		fft = mk("FFT", cfg.FFT, 6*time.Second, 600*time.Second, GSOutStream, "")
		pdf = mk("PDF_Calc", cfg.PDFCalc, time.Second, 150*time.Second, GSOutStream, "")
	}
	gs.Spec.TotalSteps = cfg.TotalSteps
	return &wms.WorkflowSpec{
		ID:    GrayScottWorkflowID,
		Tasks: []wms.TaskConfig{gs, iso, rend, fft, pdf},
	}
}

// LAMMPSTaskConfig describes one LAMMPS workflow task's Table 3 shape.
type LAMMPSTaskConfig struct {
	Procs        int
	ProcsPerNode int
}

// LAMMPSConfig is Table 3's configuration.
type LAMMPSConfig struct {
	LAMMPS        LAMMPSTaskConfig
	CNACalc       LAMMPSTaskConfig
	RDFCalc       LAMMPSTaskConfig
	CSCalc        LAMMPSTaskConfig
	TotalAtoms    int
	TotalSteps    int
	AnalysisSteps int
	// Nodes includes the spare nodes the paper allocates for failure
	// recovery ("we allocated 2 additional nodes").
	Nodes      int
	SpareNodes int
	// StepTime is LAMMPS's calibrated per-timestep duration.
	StepTime time.Duration
}

// LAMMPSConfigFor returns Table 3 for the machine.
func LAMMPSConfigFor(m Machine) LAMMPSConfig {
	if m == Summit {
		return LAMMPSConfig{
			LAMMPS:        LAMMPSTaskConfig{1500, 30},
			CNACalc:       LAMMPSTaskConfig{200, 4},
			RDFCalc:       LAMMPSTaskConfig{200, 4},
			CSCalc:        LAMMPSTaskConfig{200, 4},
			TotalAtoms:    65536000,
			TotalSteps:    1000,
			AnalysisSteps: 100,
			Nodes:         52,
			SpareNodes:    2,
			StepTime:      1400 * time.Millisecond,
		}
	}
	return LAMMPSConfig{
		LAMMPS:        LAMMPSTaskConfig{100, 14},
		CNACalc:       LAMMPSTaskConfig{20, 2},
		RDFCalc:       LAMMPSTaskConfig{20, 2},
		CSCalc:        LAMMPSTaskConfig{20, 2},
		TotalAtoms:    8192000,
		TotalSteps:    1000,
		AnalysisSteps: 50,
		Nodes:         11,
		SpareNodes:    1,
		StepTime:      3 * time.Second,
	}
}

// LAMMPS stream and checkpoint names.
const (
	MDOutStream      = "md.out"
	LAMMPSCheckpoint = "ckpt/lammps"
	// LAMMPSCheckpointEvery is the checkpoint interval in steps. With the
	// 1.4 s Summit step time and the failure injected 10 minutes in, the
	// last checkpoint lands on step 412 — the resume step Figure 11 shows.
	LAMMPSCheckpointEvery = 103
)

// LAMMPSWorkflow composes the tightly coupled molecular-dynamics workflow:
// LAMMPS stages every 10th step to three analyses (common neighbor,
// radial distribution, central symmetry). LAMMPS checkpoints periodically
// and resumes from the last checkpoint after a restart.
func LAMMPSWorkflow(m Machine) *wms.WorkflowSpec {
	cfg := LAMMPSConfigFor(m)
	stride := cfg.TotalSteps / cfg.AnalysisSteps
	lammps := wms.TaskConfig{
		Spec: task.Spec{
			Name:     "LAMMPS",
			Workflow: LAMMPSWorkflowID,
			Cost: task.Cost{
				Serial: cfg.StepTime / 7,
				Work:   time.Duration(cfg.LAMMPS.Procs) * (cfg.StepTime - cfg.StepTime/7),
				Noise:  0.02,
			},
			TotalSteps:           cfg.TotalSteps,
			ProducesTo:           MDOutStream,
			ProduceEvery:         stride,
			CheckpointEvery:      LAMMPSCheckpointEvery,
			CheckpointKey:        LAMMPSCheckpoint,
			ResumeFromCheckpoint: true,
			Profile:              true,
			StartupDelay:         2 * time.Second,
		},
		Procs:        cfg.LAMMPS.Procs,
		ProcsPerNode: cfg.LAMMPS.ProcsPerNode,
		AutoStart:    true,
	}
	ana := func(name string, tc LAMMPSTaskConfig) wms.TaskConfig {
		// ~10 s of analysis per staged record at the configured size; the
		// stride gives the analyses ~14 s per record, so they keep up.
		return wms.TaskConfig{
			Spec: task.Spec{
				Name:         name,
				Workflow:     LAMMPSWorkflowID,
				Cost:         task.Cost{Serial: time.Second, Work: time.Duration(tc.Procs) * 9 * time.Second, Noise: 0.03},
				ConsumesFrom: MDOutStream,
				ConsumeBuf:   2,
				Profile:      true,
				StartupDelay: 2 * time.Second,
			},
			Procs:        tc.Procs,
			ProcsPerNode: tc.ProcsPerNode,
			AutoStart:    true,
		}
	}
	return &wms.WorkflowSpec{
		ID: LAMMPSWorkflowID,
		Tasks: []wms.TaskConfig{
			lammps,
			ana("CNA_Calc", cfg.CNACalc),
			ana("RDF_Calc", cfg.RDFCalc),
			ana("CS_Calc", cfg.CSCalc),
		},
	}
}
