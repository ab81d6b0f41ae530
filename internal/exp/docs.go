package exp

import (
	"sync"

	"dyflow/internal/core/spec"
)

// Docs holds compiled shipped orchestration documents for one worker, so
// each document a scenario runs is parsed and compiled on the first job
// that needs it and not again: one *spec.Config then serves every later job
// with that document, in every slot at once. Sharing is sound because no
// stage writes a compiled document; a world already hands one to every
// orchestrator it builds (World.RestartOrchestrator).
//
// Only the shipped documents go in — quickstart, xgc, lammps, grayscott
// and the chaos splice per machine, seven at most — so Docs needs no bound.
// A job's own XML is compiled for that job alone and never kept. The zero
// value is ready to use and safe for concurrent jobs.
type Docs struct {
	mu   sync.Mutex
	cfgs map[docKey]*spec.Config
}

// docKey names a shipped document: its bytes, and whether the chaos
// scenario's recovery policies are spliced into it. Keying on the
// document before the splice lets a hit skip the splice too.
type docKey struct {
	xml      string
	recovery bool
}

// RunJob is the package-level RunJob with the shipped documents compiled
// through d: one job through a fresh Slot on d, so its artifacts are
// fresh slices.
func (d *Docs) RunJob(j Job, configure func(*World) error) (*JobOutcome, error) {
	return NewSlot(d).RunJob(j, configure)
}

// compile returns the compiled shipped document xml, with the recovery
// policies spliced in when recovery is set, compiling it on first use. A
// nil d keeps nothing and compiles afresh on every call.
func (d *Docs) compile(xml string, recovery bool) (*spec.Config, error) {
	k := docKey{xml, recovery}
	if d == nil {
		return compileDoc(k)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cfg, ok := d.cfgs[k]; ok {
		return cfg, nil
	}
	cfg, err := compileDoc(k)
	if err != nil {
		return nil, err
	}
	if d.cfgs == nil {
		d.cfgs = make(map[docKey]*spec.Config)
	}
	d.cfgs[k] = cfg
	return cfg, nil
}

// compileDoc splices and compiles the document k names.
func compileDoc(k docKey) (*spec.Config, error) {
	xml := k.xml
	if k.recovery {
		xml = spliceRecovery(xml)
	}
	return spec.CompileString(xml)
}
