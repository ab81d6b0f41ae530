package exp

import (
	"time"

	"dyflow/internal/apps"
	"dyflow/internal/core/arbiter"
)

// CostResult aggregates the §4.6 cost analysis over an orchestrated run.
type CostResult struct {
	// DiskLagMean is the mean detection lag (data generation to metric
	// forwarded) for a disk-scanned single variable; paper ~0.2 s plus
	// poll alignment.
	DiskLagMean time.Duration
	// StreamLagMean is the mean detection lag for TAU data actively
	// streamed via ADIOS2; paper ~0.5 s.
	StreamLagMean time.Duration
	// StopShare is the fraction of total actuation time spent waiting for
	// tasks to terminate gracefully; paper ~97%.
	StopShare float64
	// MeanResponse is the mean plan+actuation response across plans.
	MeanResponse time.Duration
	// MeanPlanTime is the mean planning-only share.
	MeanPlanTime time.Duration
}

// RunCostAnalysis derives the cost table from one Gray-Scott run (stream
// lag, actuation split) and one XGC run (disk lag).
func RunCostAnalysis(seed int64, m apps.Machine) (*CostResult, error) {
	gs, err := RunGrayScott(seed, m, true)
	if err != nil {
		return nil, err
	}
	defer gs.W.Close()
	xgc, err := RunXGC(seed, m)
	if err != nil {
		return nil, err
	}
	defer xgc.W.Close()
	res := &CostResult{
		StreamLagMean: time.Duration(gs.W.Orch.Server.Lag("PACE").Mean() * float64(time.Second)),
		DiskLagMean:   time.Duration(xgc.W.Orch.Server.Lag("NSTEPS").Mean() * float64(time.Second)),
		StopShare:     gs.W.Orch.Executor.StopShare(),
	}
	plans := append(append([]arbiter.Record(nil), gs.W.Rec.Plans...), xgc.W.Rec.Plans...)
	if len(plans) > 0 {
		var resp, plan time.Duration
		for _, p := range plans {
			resp += p.ResponseTime()
			plan += p.PlannedAt - p.ReceivedAt
		}
		res.MeanResponse = resp / time.Duration(len(plans))
		res.MeanPlanTime = plan / time.Duration(len(plans))
	}
	return res, nil
}
