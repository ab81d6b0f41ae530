package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

// CampaignConfig describes a deterministic, seeded schedule of node
// kill/heal events — the fault-injection harness behind the resilience
// experiments and the `dyflow-exp chaos` campaign. All randomness comes
// from the campaign's own seeded RNG, so the same config replays the same
// kill schedule regardless of any other randomness in the simulation.
type CampaignConfig struct {
	// Seed drives victim selection and inter-kill gaps.
	Seed int64
	// Start is the earliest kill instant; End bounds the campaign (kills
	// scheduled past End are dropped).
	Start time.Duration
	End   time.Duration
	// MeanBetween is the mean gap between kills (exponentially
	// distributed). <= 0 schedules exactly one kill at Start.
	MeanBetween time.Duration
	// HealAfter restores each killed node this long after its kill;
	// 0 means nodes stay dead.
	HealAfter time.Duration
	// MaxDown caps concurrently dead campaign nodes; kills that would
	// exceed it are skipped at fire time. <= 0 means no cap.
	MaxDown int
}

// CampaignEvent is one fault-injection event that actually fired.
type CampaignEvent struct {
	At   sim.Time
	Node NodeID
	// Kind is "kill" or "heal".
	Kind string
}

func (e CampaignEvent) String() string {
	return fmt.Sprintf("%s %s @%v", e.Kind, e.Node, e.At)
}

// Campaign runs a seeded kill/heal schedule against a cluster.
type Campaign struct {
	c       *Cluster
	cfg     CampaignConfig
	down    int
	events  []CampaignEvent
	mEvents *obs.CounterVec // dyflow_chaos_events_total{kind}
}

// NewCampaign builds a campaign over c whose fired kill/heal events count
// into reg's dyflow_chaos_events_total{kind}. Call Schedule to arm it.
func NewCampaign(c *Cluster, cfg CampaignConfig, reg *obs.Registry) *Campaign {
	return &Campaign{c: c, cfg: cfg,
		mEvents: reg.Counter("dyflow_chaos_events_total", "Fault-injection events that fired, by kind.", "kind")}
}

// Schedule precomputes the kill schedule from the seed and registers the
// simulation events. It returns the number of kills scheduled. Whether a
// scheduled kill fires still depends on fire-time state (the victim must
// be healthy and the MaxDown cap not exceeded), which is itself
// deterministic for a fixed simulation seed.
func (cp *Campaign) Schedule() int {
	rng := rand.New(rand.NewSource(cp.cfg.Seed))
	candidates := cp.c.Nodes()
	if len(candidates) == 0 {
		return 0
	}
	scheduled := 0
	at := sim.Time(cp.cfg.Start)
	for {
		cp.scheduleKill(at, candidates[rng.Intn(len(candidates))].ID)
		scheduled++
		if cp.cfg.MeanBetween <= 0 {
			break
		}
		at += sim.Time(rng.ExpFloat64() * float64(cp.cfg.MeanBetween))
		if cp.cfg.End > 0 && at > sim.Time(cp.cfg.End) {
			break
		}
	}
	return scheduled
}

// scheduleKill arms one kill (and its heal, if configured) at the given
// instant.
func (cp *Campaign) scheduleKill(at sim.Time, id NodeID) {
	cp.c.sim.At(at, func() {
		n := cp.c.Node(id)
		if n == nil || !n.Healthy() {
			return // already dead (possibly by an overlapping kill)
		}
		if cp.cfg.MaxDown > 0 && cp.down >= cp.cfg.MaxDown {
			return // cap reached; skip this kill
		}
		cp.down++
		cp.events = append(cp.events, CampaignEvent{At: cp.c.sim.Now(), Node: id, Kind: "kill"})
		cp.mEvents.With("kill").Inc()
		cp.c.FailNode(id)
		if cp.cfg.HealAfter > 0 {
			cp.c.sim.After(cp.cfg.HealAfter, func() {
				if cp.c.Node(id).Healthy() {
					return
				}
				cp.down--
				cp.events = append(cp.events, CampaignEvent{At: cp.c.sim.Now(), Node: id, Kind: "heal"})
				cp.mEvents.With("heal").Inc()
				cp.c.RestoreNode(id)
			})
		}
	})
}

// Events returns the kill/heal events that actually fired, in order.
func (cp *Campaign) Events() []CampaignEvent { return cp.events }
