package spec

import (
	"strings"
	"testing"

	"dyflow/internal/fsim"
)

// FuzzCompileString asserts the XML compiler never panics and never
// returns a config with dangling references, whatever the input (run with
// `go test -fuzz FuzzCompileString ./internal/core/spec`).
func FuzzCompileString(f *testing.F) {
	f.Add(paceXML)
	f.Add("<dyflow/>")
	f.Add("<dyflow><monitor><sensors><sensor id=\"A\" type=\"DB\"><group-by><group granularity=\"task\" reduction-operation=\"MAX\"/></group-by></sensor></sensors></monitor><decision><policies><policy id=\"P\"><eval operation=\"GT\" threshold=\"1\"/><sensors-to-use><use-sensor id=\"A\" granularity=\"task\"/></sensors-to-use><action>STOP</action></policy></policies><apply-on workflowId=\"W\"><apply-policy policyId=\"P\"><act-on-tasks>T</act-on-tasks></apply-policy></apply-on></decision></dyflow>")
	f.Add("<dyflow><monitor><sensors><sensor id='X' type='DISKSCAN'><join sensor-id='X' operation='DIV' granularity='workflow'/></sensor></sensors></monitor></dyflow>")
	f.Add(strings.Repeat("<dyflow>", 50))
	f.Add("<dyflow><monitor><sensors><sensor id='S' type='DISKSCAN'><group-by><group granularity='task' reduction-operation='MAX'/></group-by></sensor></sensors><monitor-tasks><monitor-task name='T' workflowId='W' info-source='out/[.bp'><use-sensor sensor-id='S' info='step'/></monitor-task></monitor-tasks></monitor></dyflow>")

	f.Add(strings.Replace(paceXML, `value="20"`, `value="abc"`, 1))
	f.Add(strings.Replace(paceXML, `<param key="adjust-by" value="20"/>`, `<param key="procs" value="-4"/>`, 1))

	f.Fuzz(func(t *testing.T, xml string) {
		cfg, err := CompileString(xml)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// Accepted configs must be internally consistent.
		for id, sd := range cfg.Sensors {
			if sd.ID != id {
				t.Fatalf("sensor id mismatch: %q vs %q", sd.ID, id)
			}
			if len(sd.Groups) == 0 {
				t.Fatalf("sensor %q accepted without groups", id)
			}
			if sd.Join != nil {
				if _, ok := cfg.Sensors[sd.Join.SensorID]; !ok {
					t.Fatalf("sensor %q joins unknown sensor %q", id, sd.Join.SensorID)
				}
			}
		}
		for _, tg := range cfg.Targets {
			for _, use := range tg.Sensors {
				if cfg.Sensors[use.SensorID].Source != SourceDiskScan {
					continue
				}
				if _, err := fsim.Compile(tg.InfoSource); err != nil {
					t.Fatalf("monitor-task %q accepted with a malformed disk-scan glob: %v", tg.Task, err)
				}
			}
		}
		for _, b := range cfg.Bindings {
			if _, ok := cfg.Policies[b.PolicyID]; !ok {
				t.Fatalf("binding references unknown policy %q", b.PolicyID)
			}
			if len(b.ActOnTasks) == 0 {
				t.Fatalf("binding with empty act-on accepted")
			}
			for _, key := range []string{"adjust-by", "procs"} {
				if _, ok := b.Params[key]; ok && b.IntParam(key, 0) < 1 {
					t.Fatalf("binding %q accepted with %s %q", b.PolicyID, key, b.Params[key])
				}
			}
		}
		for _, pd := range cfg.Policies {
			if pd.Frequency <= 0 {
				t.Fatalf("policy %q accepted with non-positive frequency", pd.ID)
			}
			for _, ref := range pd.Sensors {
				sd, ok := cfg.Sensors[ref.SensorID]
				if !ok {
					t.Fatalf("policy %q references unknown sensor", pd.ID)
				}
				if !sd.HasGranularity(ref.Granularity) {
					t.Fatalf("policy %q accepted with undeclared granularity", pd.ID)
				}
			}
		}
	})
}
