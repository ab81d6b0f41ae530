package exp

import (
	"fmt"
	"testing"
	"time"

	"dyflow/internal/core"
)

// undrainedInbox reports an orchestrator inbox that holds a message
// although its stage is up and not mid-round. A scenario world injects no
// stage panic, so no stage awaits a supervised restart; a restart counted
// is reported too, since a sample cannot tell which stage is down. Call
// it between two instants.
func undrainedInbox(o *core.Orchestrator) error {
	if v, _ := o.Trace.Registry().Value("dyflow_stage_restarts_total"); v != 0 {
		return fmt.Errorf("%v supervised stage restarts in a world that injects no stage panic", v)
	}
	for _, ep := range o.Bus.Snapshot().Endpoints {
		if len(ep.Queue) == 0 || ep.Name == core.EndpointArbiter && o.Arbiter.Busy() {
			continue
		}
		return fmt.Errorf("endpoint %q holds %d queued messages past their instant", ep.Name, len(ep.Queue))
	}
	return nil
}

// TestProperty_Supervisor_InboxesDrainWithinInstant: a stage that is up
// and not mid-round drains its inbox within the instant a message arrives,
// which is why the supervisor restarts panicked stages only and watches
// no queue. At the first tick of every 30 s of simulated time, every job
// scenario on both machines, seeds 1–3, and the chaos campaigns whose
// orchestrator is killed twice, hold no queued message but a Busy()
// arbiter's. (internal/core's test of the same name samples a run with
// stage panics and shows that a planted stall fails it.)
func TestProperty_Supervisor_InboxesDrainWithinInstant(t *testing.T) {
	const every = 30 * time.Second
	// sampling attaches the sampler to w and counts its samples into n.
	sampling := func(n *int) func(w *World) error {
		return func(w *World) error {
			next := every
			w.OnProgress = func(now time.Duration) error {
				if now < next || w.Orch == nil {
					return nil
				}
				next = (now/every + 1) * every
				*n++
				if err := undrainedInbox(w.Orch); err != nil {
					return fmt.Errorf("at %v: %w", now, err)
				}
				return nil
			}
			return nil
		}
	}
	total := 0
	for _, machine := range []string{"summit", "dt2"} {
		m := Job{Machine: machine}.machine()
		for seed := int64(1); seed <= 3; seed++ {
			for _, sc := range Scenarios() {
				n := 0
				if _, err := RunJob(Job{Scenario: sc, Machine: machine, Seed: seed}, sampling(&n)); err != nil {
					t.Errorf("%s %v seed %d: %v", sc, m, seed, err)
				}
				if n == 0 {
					t.Errorf("%s %v seed %d: no sample taken", sc, m, seed)
				}
				total += n
			}

			n := 0
			opts := DefaultChaosOptions()
			opts.OrchKills = 2
			res, err := RunChaosVariant(seed, m, opts, Variant{Configure: sampling(&n)})
			if err != nil {
				t.Errorf("chaos with orchestrator kills, %v seed %d: %v", m, seed, err)
				continue
			}
			res.W.Close()
			if res.OrchKills != opts.OrchKills || n == 0 {
				t.Errorf("chaos %v seed %d: %d orchestrator kills, %d samples; want %d kills and samples",
					m, seed, res.OrchKills, n, opts.OrchKills)
			}
			total += n
		}
	}
	t.Logf("%d samples", total)
}
