package exp

import (
	"os"
	"testing"

	"dyflow/internal/apps"
)

func TestOverProvisioningShrinks(t *testing.T) {
	res, err := RunGrayScottOverProvisioned(1, apps.Summit)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DYFLOW_DEBUG") != "" {
		res.W.Rec.Gantt(os.Stderr, 100)
		res.W.Rec.PlanSummary(os.Stderr)
	}
	rep := OverProvisionReport(res)
	if !holds(rep) {
		rep.Write(os.Stderr)
		t.Fatal("over-provisioning report does not hold")
	}
}

func TestCostAnalysis(t *testing.T) {
	res, err := RunCostAnalysis(1, apps.Summit)
	if err != nil {
		t.Fatal(err)
	}
	rep := CostReport(res)
	if !holds(rep) {
		rep.Write(os.Stderr)
		t.Fatal("cost report does not hold")
	}
}
