package partition

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// cosmoKeys returns the first n CosmoFlow training paths.
func cosmoKeys(n int) []string {
	ds := workload.CosmoFlowTrain()
	ds.NumFiles = n
	return ds.AllPaths()
}

// small runs a fast sweep point for unit testing.
func small(vnodes, trials int) RedistributePoint {
	return Redistribute(RedistributeConfig{
		PhysicalNodes: 64,
		VirtualNodes:  vnodes,
		Keys:          cosmoKeys(4096),
		Trials:        trials,
		Seed:          1,
	})
}

func TestReceiverCountGrowsWithVirtualNodes(t *testing.T) {
	lo := small(2, 30)
	hi := small(100, 30)
	if hi.ReceiverMean <= lo.ReceiverMean {
		t.Errorf("receivers: v=2 → %.1f, v=100 → %.1f; should grow", lo.ReceiverMean, hi.ReceiverMean)
	}
	// With very few virtual nodes, only a handful of survivors receive
	// anything (the paper's v=10 point shows ~3 of 1024).
	if lo.ReceiverMean > 10 {
		t.Errorf("v=2 receivers = %.1f, expected a handful", lo.ReceiverMean)
	}
}

func TestFilesPerReceiverShrinksWithVirtualNodes(t *testing.T) {
	lo := small(2, 30)
	hi := small(100, 30)
	if hi.FilesPerNodeMean >= lo.FilesPerNodeMean {
		t.Errorf("files/receiver: v=2 → %.1f, v=100 → %.1f; should shrink",
			lo.FilesPerNodeMean, hi.FilesPerNodeMean)
	}
}

func TestConservation(t *testing.T) {
	// Receivers × mean files per receiver ≈ lost files (they must all
	// land somewhere).
	p := small(50, 20)
	redistributed := p.ReceiverMean * p.FilesPerNodeMean
	if redistributed < p.LostMean*0.8 || redistributed > p.LostMean*1.2 {
		t.Errorf("redistribution not conserved: receivers×files = %.1f, lost = %.1f",
			redistributed, p.LostMean)
	}
	// Lost files should be about files/nodes on average.
	expLost := 4096.0 / 64.0
	if p.LostMean < expLost/2 || p.LostMean > expLost*2 {
		t.Errorf("lost mean = %.1f, expected near %.1f", p.LostMean, expLost)
	}
}

func TestReceiversBoundedByLostAndSurvivors(t *testing.T) {
	p := small(1000, 10)
	if p.ReceiverMean > 63 {
		t.Errorf("receivers %.1f exceed survivor count", p.ReceiverMean)
	}
	if p.ReceiverMean > p.LostMean {
		t.Errorf("receivers %.1f exceed lost files %.1f", p.ReceiverMean, p.LostMean)
	}
}

func TestDiminishingReturns(t *testing.T) {
	// The paper's key observation: receiver growth flattens at high
	// virtual-node counts (files, not arcs, become the limit).
	a := small(10, 20)
	b := small(100, 20)
	c := small(1000, 20)
	growLow := b.ReceiverMean - a.ReceiverMean
	growHigh := c.ReceiverMean - b.ReceiverMean
	if growHigh >= growLow {
		t.Errorf("receiver growth should flatten: 10→100 = %.1f, 100→1000 = %.1f",
			growLow, growHigh)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := small(50, 10)
	b := small(50, 10)
	if a != b {
		t.Errorf("same seed should reproduce identical results: %+v vs %+v", a, b)
	}
	// Trials run on GOMAXPROCS goroutines; one goroutine must give the
	// same point.
	prev := runtime.GOMAXPROCS(1)
	serial := small(50, 10)
	runtime.GOMAXPROCS(prev)
	if serial != a {
		t.Errorf("GOMAXPROCS(1) point %+v differs from GOMAXPROCS(%d) point %+v", serial, prev, a)
	}
}

func TestSweepShape(t *testing.T) {
	pts := RedistributeSweep(32, cosmoKeys(4096), 10, 3, []int{5, 50})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].VirtualNodes != 5 || pts[1].VirtualNodes != 50 {
		t.Error("sweep order broken")
	}
	for _, p := range pts {
		if p.Trials != 10 {
			t.Errorf("trials = %d", p.Trials)
		}
		if p.ReceiverStdDev < 0 || p.FilesPerNodeStdDev < 0 {
			t.Error("negative stddev")
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Redistribute(RedistributeConfig{PhysicalNodes: 1, Keys: cosmoKeys(10), Trials: 1})
}

func BenchmarkTrialV100(b *testing.B) {
	cfg := RedistributeConfig{PhysicalNodes: 256, VirtualNodes: 100, Keys: cosmoKeys(16384), Seed: 1, Trials: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Redistribute(cfg)
	}
}

func TestMultiFailure(t *testing.T) {
	single := Redistribute(RedistributeConfig{
		PhysicalNodes: 64, VirtualNodes: 100, Keys: cosmoKeys(4096), Trials: 20, Seed: 5,
	})
	multi := Redistribute(RedistributeConfig{
		PhysicalNodes: 64, VirtualNodes: 100, Keys: cosmoKeys(4096), Trials: 20, Seed: 5,
		SimultaneousFailures: 4,
	})
	// Four simultaneous failures lose ~4x the files and spread over more
	// receivers.
	if multi.LostMean < single.LostMean*3 || multi.LostMean > single.LostMean*5 {
		t.Errorf("lost: single=%.1f multi=%.1f, want ~4x", single.LostMean, multi.LostMean)
	}
	if multi.ReceiverMean <= single.ReceiverMean {
		t.Errorf("receivers: single=%.1f multi=%.1f", single.ReceiverMean, multi.ReceiverMean)
	}
	// Receivers never include failed nodes: bounded by survivors.
	if multi.ReceiverMean > 60 {
		t.Errorf("receivers %.1f exceed survivor count", multi.ReceiverMean)
	}
}

func TestMultiFailurePanicsWithoutSurvivors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Redistribute(RedistributeConfig{PhysicalNodes: 4, VirtualNodes: 10, Keys: cosmoKeys(100), Trials: 1,
		SimultaneousFailures: 4})
}

func TestAnalyticMatchesMonteCarlo(t *testing.T) {
	for _, tc := range []struct{ nodes, vnodes, files int }{
		{64, 10, 4096},
		{64, 100, 4096},
		{128, 50, 8192},
		{64, 1000, 4096},
	} {
		mc := Redistribute(RedistributeConfig{
			PhysicalNodes: tc.nodes, VirtualNodes: tc.vnodes,
			Keys: cosmoKeys(tc.files), Trials: 40, Seed: 9,
		})
		an := ExpectedReceivers(tc.nodes, tc.vnodes, tc.files)
		rel := (mc.ReceiverMean - an) / an
		if rel < -0.30 || rel > 0.30 {
			t.Errorf("n=%d v=%d f=%d: MC=%.1f analytic=%.1f (rel %.2f)",
				tc.nodes, tc.vnodes, tc.files, mc.ReceiverMean, an, rel)
		}
	}
}

func TestAnalyticPlateau(t *testing.T) {
	// The model explains the paper's plateau: receivers are capped by
	// lost files, not virtual nodes.
	lost := 524288.0 / 1024.0
	atHuge := ExpectedReceivers(1024, 100000, 524288)
	if atHuge > lost {
		t.Errorf("analytic receivers %.1f exceed lost files %.1f", atHuge, lost)
	}
	// Per-virtual-node marginal gain collapses at high counts (the
	// paper's diminishing returns): compare slope per added vnode.
	slopeHigh := (ExpectedReceivers(1024, 1000, 524288) - ExpectedReceivers(1024, 500, 524288)) / 500
	slopeLow := (ExpectedReceivers(1024, 100, 524288) - ExpectedReceivers(1024, 50, 524288)) / 50
	if slopeHigh >= slopeLow/2 {
		t.Errorf("marginal receiver gain should collapse: %.3f vs %.3f", slopeHigh, slopeLow)
	}
	if ExpectedReceivers(1, 10, 100) != 0 || ExpectedReceivers(10, 0, 100) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}
