package cluster

import (
	"reflect"
	"testing"
	"time"

	"dyflow/internal/obs"
	"dyflow/internal/sim"
)

func runCampaign(t *testing.T, cfg CampaignConfig, horizon time.Duration) *Campaign {
	t.Helper()
	s := sim.New(1)
	c := Deepthought2(s, 4)
	cp := NewCampaign(c, cfg, obs.NewRegistry())
	if cp.Schedule() == 0 {
		t.Fatal("no kills scheduled")
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return cp
}

// The same seed must replay the exact same kill/heal schedule.
func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{
		Seed:        7,
		Start:       time.Minute,
		End:         30 * time.Minute,
		MeanBetween: 5 * time.Minute,
		HealAfter:   2 * time.Minute,
	}
	a := runCampaign(t, cfg, time.Hour).Events()
	b := runCampaign(t, cfg, time.Hour).Events()
	if len(a) == 0 {
		t.Fatal("campaign fired no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedules differ:\n%v\n%v", a, b)
	}
	c := runCampaign(t, CampaignConfig{
		Seed: 8, Start: cfg.Start, End: cfg.End,
		MeanBetween: cfg.MeanBetween, HealAfter: cfg.HealAfter,
	}, time.Hour).Events()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// A one-node cluster makes node000 the only victim the campaign can pick.
func TestCampaignHealsKilledNodes(t *testing.T) {
	s := sim.New(1)
	c := Deepthought2(s, 1)
	cp := NewCampaign(c, CampaignConfig{
		Seed: 1, Start: time.Minute, HealAfter: 5 * time.Minute,
	}, obs.NewRegistry())
	cp.Schedule() // MeanBetween 0: exactly one kill at Start
	s.At(2*time.Minute, func() {
		if c.Node("node000").Healthy() {
			t.Error("node000 should be down between kill and heal")
		}
	})
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !c.Node("node000").Healthy() {
		t.Fatal("node000 not healed")
	}
	if fired(cp, "kill") != 1 || fired(cp, "heal") != 1 {
		t.Fatalf("kills=%d heals=%d, want 1/1", fired(cp, "kill"), fired(cp, "heal"))
	}
}

// MaxDown caps concurrently dead nodes: kills that would exceed it are
// skipped at fire time, keeping the cluster above a survivable floor.
func TestCampaignMaxDownCap(t *testing.T) {
	cp := runCampaign(t, CampaignConfig{
		Seed:        3,
		Start:       time.Minute,
		End:         time.Hour,
		MeanBetween: time.Minute,      // aggressive kills...
		HealAfter:   30 * time.Minute, // ...with slow heals
		MaxDown:     1,
	}, 2*time.Hour)
	down := 0
	for _, ev := range cp.Events() {
		switch ev.Kind {
		case "kill":
			down++
		case "heal":
			down--
		}
		if down > 1 {
			t.Fatalf("more than MaxDown nodes dead at %v: %v", ev.At, cp.Events())
		}
	}
	if fired(cp, "kill") < 2 {
		t.Fatalf("kills = %d, want several over the hour", fired(cp, "kill"))
	}
}

// TestCampaignMetrics: fired kill/heal events count into the chaos-events
// counter, matching the campaign's own event log.
func TestCampaignMetrics(t *testing.T) {
	s := sim.New(1)
	c := Deepthought2(s, 4)
	reg := obs.NewRegistry()
	cp := NewCampaign(c, CampaignConfig{
		Seed:        7,
		Start:       time.Minute,
		End:         30 * time.Minute,
		MeanBetween: 5 * time.Minute,
		HealAfter:   2 * time.Minute,
	}, reg)
	if cp.Schedule() == 0 {
		t.Fatal("no kills scheduled")
	}
	if err := s.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if fired(cp, "kill") == 0 || fired(cp, "heal") == 0 {
		t.Fatalf("campaign fired kills=%d heals=%d, want both > 0", fired(cp, "kill"), fired(cp, "heal"))
	}
	if v, ok := reg.Value("dyflow_chaos_events_total"); !ok || v != float64(fired(cp, "kill")+fired(cp, "heal")) {
		t.Fatalf("chaos events = %v (ok=%v), want %d", v, ok, fired(cp, "kill")+fired(cp, "heal"))
	}
}

// fired counts the campaign's fired events of one kind.
func fired(cp *Campaign, kind string) int {
	n := 0
	for _, e := range cp.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
