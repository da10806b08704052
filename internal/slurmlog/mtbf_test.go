package slurmlog

import (
	"math"
	"testing"
	"time"
)

func TestEstimateMTBFHandBuilt(t *testing.T) {
	base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		{State: StateCompleted, Nodes: 10, Elapsed: 10 * time.Hour, Submit: base},
		{State: StateNodeFail, Nodes: 50, Elapsed: 2 * time.Hour, Submit: base.Add(24 * time.Hour)},
		{State: StateTimeout, Nodes: 100, Elapsed: 1 * time.Hour, Submit: base.Add(48 * time.Hour)},
		{State: StateCancelled, Nodes: 999, Elapsed: 99 * time.Hour, Submit: base.Add(72 * time.Hour)},
	}
	rep := EstimateMTBF(recs)
	// Node-hours: 10*10 + 50*2 + 100*1 = 300 (cancelled excluded);
	// 2 node-failure-class events → per-node MTBF 150h.
	if rep.NodeFailureEvents != 2 {
		t.Errorf("events = %d", rep.NodeFailureEvents)
	}
	if math.Abs(rep.NodeHours-300) > 1e-9 {
		t.Errorf("node-hours = %v", rep.NodeHours)
	}
	if rep.PerNodeMTBF != 150*time.Hour {
		t.Errorf("MTBF = %v", rep.PerNodeMTBF)
	}
	if rep.Span != 72*time.Hour {
		t.Errorf("span = %v", rep.Span)
	}
}

func TestEstimateMTBFEmpty(t *testing.T) {
	rep := EstimateMTBF(nil)
	if rep.NodeFailureEvents != 0 || rep.PerNodeMTBF != 0 {
		t.Errorf("empty report: %+v", rep)
	}
	if rep.SurvivalProbability(100, time.Hour) != 1 {
		t.Error("no-data survival should be 1")
	}
}

func TestSurvivalProbabilityShape(t *testing.T) {
	rep := MTBFReport{PerNodeMTBF: 1000 * time.Hour}
	// exp(-N·T/MTBF): more nodes → lower survival; longer job → lower.
	p64 := rep.SurvivalProbability(64, 2*time.Hour)
	p1024 := rep.SurvivalProbability(1024, 2*time.Hour)
	if p1024 >= p64 {
		t.Errorf("survival must fall with node count: %v vs %v", p1024, p64)
	}
	pShort := rep.SurvivalProbability(64, time.Hour)
	if pShort <= p64 {
		t.Error("survival must fall with duration")
	}
	// Exact check: N=1000, T=1h → exp(-1).
	got := rep.SurvivalProbability(1000, time.Hour)
	if math.Abs(got-math.Exp(-1)) > 1e-9 {
		t.Errorf("survival = %v, want e^-1", got)
	}
	if rep.SurvivalProbability(0, time.Hour) != 1 {
		t.Error("zero nodes should survive")
	}
	if f := rep.ExpectedFailures(1000, time.Hour); math.Abs(f-1) > 1e-9 {
		t.Errorf("expected failures = %v, want 1", f)
	}
}

func TestMTBFOnSyntheticLog(t *testing.T) {
	cfg := FrontierDefaults(11)
	cfg.Jobs = 30000
	recs := Generate(cfg)
	rep := EstimateMTBF(recs)
	if rep.NodeFailureEvents == 0 || rep.PerNodeMTBF <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	// The headline implication of §III: a whole-machine-scale job has a
	// materially lower survival probability than a small one.
	pSmall := rep.SurvivalProbability(64, 2*time.Hour)
	pBig := rep.SurvivalProbability(9000, 2*time.Hour)
	if pBig >= pSmall {
		t.Errorf("survival: 9000 nodes %v should be < 64 nodes %v", pBig, pSmall)
	}
}
