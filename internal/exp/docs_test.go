package exp

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"dyflow/internal/core/spec"
)

// TestProperty_SharedDocs_ArtifactsEqualFresh: jobs that share one Docs,
// as the slots of a worker do, run concurrently and each ends with the
// artifacts a job with its own fresh compile ends with, byte for byte —
// every scenario on both machines, seeds 1-3. Afterwards the Docs holds
// the seven shipped documents and nothing else, and each compiled
// document still deep-equals a fresh compile of its bytes: no job wrote
// the document it shared.
func TestProperty_SharedDocs_ArtifactsEqualFresh(t *testing.T) {
	var jobs []Job
	for _, sc := range Scenarios() {
		for _, m := range []string{"summit", "dt2"} {
			for seed := int64(1); seed <= 3; seed++ {
				jobs = append(jobs, Job{Scenario: sc, Machine: m, Seed: seed})
			}
		}
	}
	var d Docs
	next := make(chan Job)
	var wg sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				shared, err := d.RunJob(j, nil)
				if err != nil {
					t.Errorf("%+v: %v", j, err)
					continue
				}
				fresh, err := RunJob(j, nil)
				if err != nil {
					t.Errorf("%+v: %v", j, err)
					continue
				}
				if fresh.Converged != shared.Converged || fresh.SimEnd != shared.SimEnd {
					t.Errorf("%+v: shared run converged=%v end=%v, fresh converged=%v end=%v",
						j, shared.Converged, shared.SimEnd, fresh.Converged, fresh.SimEnd)
				}
				for _, name := range []string{ArtifactReport, ArtifactGantt, ArtifactPerfetto, ArtifactMetrics} {
					if !bytes.Equal(shared.Artifacts[name], fresh.Artifacts[name]) {
						t.Errorf("%+v: artifact %s over the shared documents differs from a fresh compile's", j, name)
					}
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()

	if len(d.cfgs) != 7 {
		t.Errorf("the Docs holds %d documents, want the seven shipped ones", len(d.cfgs))
	}
	for k, cfg := range d.cfgs {
		fresh, err := compileDoc(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, fresh) {
			t.Errorf("a shared document (recovery=%v, %d bytes) no longer equals a fresh compile of it", k.recovery, len(k.xml))
		}
	}
}

// TestJobXMLCompiledOnce: a job that brings its own document runs on the
// document its validation compiled, not a second compile, and the Docs
// it runs through does not keep it.
func TestJobXMLCompiledOnce(t *testing.T) {
	var d Docs
	j, cfg, err := Job{Scenario: ScenarioQuickstart, Seed: 1, XML: quickstartXML}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg == nil {
		t.Fatal("normalize returned no compiled document for a job with XML")
	}
	var w *World
	if _, err := NewSlot(&d).run(j, cfg, func(x *World) error { w = x; return nil }); err != nil {
		t.Fatal(err)
	}
	if w.orchCfg != cfg {
		t.Error("the world orchestrates with a second compile of the job's document, not the validated one")
	}
	if len(d.cfgs) != 0 {
		t.Errorf("the Docs kept %d documents after a job with its own XML, want none", len(d.cfgs))
	}
}

// TestDocsCompileOncePerDocument: the first job of a scenario fills its
// document, and every later job — on any seed — runs on that same
// compiled document; a nil Docs compiles anew each time.
func TestDocsCompileOncePerDocument(t *testing.T) {
	var d Docs
	var first *spec.Config
	for seed := int64(1); seed <= 2; seed++ {
		for _, sc := range []string{ScenarioGrayScott, ScenarioOverprov} {
			var w *World
			if _, err := d.RunJob(Job{Scenario: sc, Seed: seed}, func(x *World) error { w = x; return nil }); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = w.orchCfg
			}
			if w.orchCfg != first {
				t.Fatalf("%s seed %d ran on a second compile of the grayscott document", sc, seed)
			}
		}
	}
	var fresh *Docs
	a, _ := fresh.compile(quickstartXML, false)
	b, _ := fresh.compile(quickstartXML, false)
	if a == b {
		t.Error("a nil Docs returned the same compiled document twice")
	}
}
