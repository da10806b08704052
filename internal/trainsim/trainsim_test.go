package trainsim

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/storage"
	"repro/internal/workload"
)

// testConfig is a scaled-down geometry that keeps tests fast while
// preserving the model's mechanics (many files per node, many steps).
func testConfig(nodes int, strategy ftcache.StrategyKind) Config {
	cfg := Frontier(nodes, strategy)
	cfg.Dataset = workload.Dataset{
		Name: "t", Prefix: "t", NumFiles: 8192, FileBytes: 2_600_000,
	}
	cfg.LocalBatch = 8
	cfg.Epochs = 5
	return cfg
}

func TestColdFirstEpochThenCached(t *testing.T) {
	res := Run(testConfig(16, ftcache.KindNVMe))
	if res.Aborted {
		t.Fatal("no-failure run aborted")
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	e0 := res.Epochs[0]
	if e0.PFSReads != 8192 {
		t.Errorf("first epoch PFS reads = %d, want 8192 (cold cache)", e0.PFSReads)
	}
	for _, e := range res.Epochs[1:] {
		if e.PFSReads != 0 {
			t.Errorf("epoch %d PFS reads = %d, want 0 (fully cached)", e.Epoch, e.PFSReads)
		}
		if e.Duration >= e0.Duration {
			t.Errorf("epoch %d (%v) not faster than cold epoch (%v)", e.Epoch, e.Duration, e0.Duration)
		}
	}
	if res.PFSReads != 8192 {
		t.Errorf("total PFS reads = %d", res.PFSReads)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := testConfig(16, ftcache.KindNVMe)
	cfg.Failures = failure.Random(2, cfg.Epochs, 9)
	a := Run(cfg)
	b := Run(cfg)
	if a.Total != b.Total || a.PFSReads != b.PFSReads || a.Restarts != b.Restarts {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestNoFTAbortsOnFailure(t *testing.T) {
	cfg := testConfig(8, ftcache.KindNoFT)
	cfg.Failures = []failure.Event{{Epoch: 1, Frac: 0.5, Node: "node-0003"}}
	res := Run(cfg)
	if !res.Aborted {
		t.Fatal("NoFT run did not abort")
	}
	if len(res.Epochs) != 1 {
		t.Errorf("completed epochs = %d, want 1", len(res.Epochs))
	}
}

func TestNoFTFastestWithoutFailures(t *testing.T) {
	// Fig 5(a): NoFT consistently best because FT bookkeeping costs.
	noft := Run(testConfig(16, ftcache.KindNoFT))
	fpfs := Run(testConfig(16, ftcache.KindPFS))
	fnvme := Run(testConfig(16, ftcache.KindNVMe))
	if noft.Total >= fpfs.Total || noft.Total >= fnvme.Total {
		t.Errorf("NoFT (%v) should beat FT-PFS (%v) and FT-NVMe (%v)",
			noft.Total, fpfs.Total, fnvme.Total)
	}
	// But only slightly: within ~10%.
	if float64(fnvme.Total) > 1.10*float64(noft.Total) {
		t.Errorf("FT overhead too large: %v vs %v", fnvme.Total, noft.Total)
	}
}

func TestPFSRedirectPaysEveryEpoch(t *testing.T) {
	cfg := testConfig(16, ftcache.KindPFS)
	cfg.Failures = []failure.Event{{Epoch: 1, Frac: 0.1, Node: "node-0005"}}
	res := Run(cfg)
	if res.Aborted {
		t.Fatal("aborted")
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	// Epochs 2..4 run failure-free but keep hitting the PFS for the lost
	// files, with identical read counts.
	var post []int64
	for _, e := range res.Epochs {
		if e.Epoch >= 2 {
			if !e.PostFailure {
				t.Errorf("epoch %d should be post-failure", e.Epoch)
			}
			if e.PFSReads == 0 {
				t.Errorf("epoch %d: redirection should hit PFS", e.Epoch)
			}
			post = append(post, e.PFSReads)
		}
	}
	for i := 1; i < len(post); i++ {
		if post[i] != post[0] {
			t.Errorf("redirection reads vary: %v", post)
		}
	}
}

func TestRingRecachePaysOnce(t *testing.T) {
	cfg := testConfig(16, ftcache.KindNVMe)
	cfg.Failures = []failure.Event{{Epoch: 1, Frac: 0.1, Node: "node-0005"}}
	res := Run(cfg)
	if res.Aborted {
		t.Fatal("aborted")
	}
	// The victim epoch recaches the lost files; later epochs are clean.
	victimReads := int64(0)
	for _, e := range res.Epochs {
		switch {
		case e.Epoch == 1:
			victimReads = e.PFSReads
			if victimReads == 0 {
				t.Error("victim epoch should recache from PFS")
			}
		case e.Epoch >= 2:
			if e.PFSReads != 0 {
				t.Errorf("epoch %d PFS reads = %d; recaching should have healed", e.Epoch, e.PFSReads)
			}
		}
	}
	// Lost files ≈ F/N; recache reads should be within 2x of that
	// (shuffled re-pass can touch a file before/after rollback).
	expect := int64(8192 / 16)
	if victimReads < expect/2 || victimReads > expect*3 {
		t.Errorf("victim recache reads = %d, expected around %d", victimReads, expect)
	}
}

// TestHeadline is the paper's central comparison: with failures, FT w/
// NVMe beats FT w/ PFS, and both lose to the no-failure baseline.
func TestHeadline(t *testing.T) {
	fail := []failure.Event{
		{Epoch: 1, Frac: 0.2},
		{Epoch: 2, Frac: 0.4},
		{Epoch: 3, Frac: 0.1},
	}
	mk := func(kind ftcache.StrategyKind, failures []failure.Event) Result {
		cfg := testConfig(32, kind)
		cfg.Failures = failures
		return Run(cfg)
	}
	base := mk(ftcache.KindNVMe, nil)
	nvme := mk(ftcache.KindNVMe, fail)
	pfs := mk(ftcache.KindPFS, fail)
	if nvme.Aborted || pfs.Aborted {
		t.Fatal("FT runs aborted")
	}
	if nvme.Total <= base.Total {
		t.Errorf("failures should cost time: %v vs base %v", nvme.Total, base.Total)
	}
	if pfs.Total <= nvme.Total {
		t.Errorf("FT w/ PFS (%v) should be slower than FT w/ NVMe (%v)", pfs.Total, nvme.Total)
	}
}

func TestStrongScaling(t *testing.T) {
	prev := time.Duration(0)
	for i, n := range []int{64, 32, 16, 8} {
		res := Run(testConfig(n, ftcache.KindNVMe))
		if i > 0 && res.Total <= prev {
			t.Errorf("%d nodes (%v) should be slower than %d nodes (%v)",
				n, res.Total, n*2, prev)
		}
		prev = res.Total
	}
}

func TestVictimAndCleanEpochMeans(t *testing.T) {
	cfg := testConfig(16, ftcache.KindNVMe)
	cfg.Failures = []failure.Event{{Epoch: 2, Frac: 0.3}}
	res := Run(cfg)
	clean := res.CleanEpochMean()
	victim := res.VictimEpochMean()
	if clean <= 0 || victim <= 0 {
		t.Fatalf("means: clean=%v victim=%v", clean, victim)
	}
	if victim <= clean {
		t.Errorf("victim epoch (%v) should exceed clean epoch (%v)", victim, clean)
	}
	// A no-failure run has no victim or post-failure epochs.
	base := Run(testConfig(16, ftcache.KindNVMe))
	if base.VictimEpochMean() != 0 || base.PostFailureEpochMean() != 0 {
		t.Error("no-failure run should have zero victim/post-failure means")
	}
}

func TestPostFailureEpochMeanPFS(t *testing.T) {
	cfg := testConfig(16, ftcache.KindPFS)
	cfg.Failures = []failure.Event{{Epoch: 1, Frac: 0.2}}
	res := Run(cfg)
	post := res.PostFailureEpochMean()
	clean := Run(testConfig(16, ftcache.KindPFS)).CleanEpochMean()
	if post <= clean {
		t.Errorf("redirection epochs (%v) should exceed clean epochs (%v)", post, clean)
	}
}

func TestAbsoluteTimeFailure(t *testing.T) {
	cfg := testConfig(8, ftcache.KindNVMe)
	// Fire well into the run by absolute virtual time.
	probe := Run(cfg)
	cfg.Failures = []failure.Event{{At: probe.Total / 2}}
	res := Run(cfg)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	if res.Aborted {
		t.Error("aborted")
	}
}

// TestLateTimedFailureLeavesRunAlone: a timed failure due after the
// run's natural end never fires, and must not stretch the total to At.
func TestLateTimedFailureLeavesRunAlone(t *testing.T) {
	cfg := testConfig(8, ftcache.KindNVMe)
	base := Run(cfg)
	cfg.Failures = []failure.Event{{At: 10 * base.Total}}
	res := Run(cfg)
	if res.Total != base.Total || res.Restarts != base.Restarts {
		t.Errorf("total %v, restarts %d; want the no-failure run's %v, %d",
			res.Total, res.Restarts, base.Total, base.Restarts)
	}
}

func TestAllNodesFailedAborts(t *testing.T) {
	cfg := testConfig(2, ftcache.KindNVMe)
	// Random victim choice never takes the last live rank, so pin both.
	cfg.Failures = []failure.Event{
		{Epoch: 1, Frac: 0.1, Node: "node-0000"},
		{Epoch: 1, Frac: 0.2, Node: "node-0001"},
	}
	res := Run(cfg)
	if !res.Aborted || res.Restarts != 2 || len(res.Epochs) != 1 {
		t.Errorf("aborted=%v restarts=%d epochs=%d; want true, 2, 1",
			res.Aborted, res.Restarts, len(res.Epochs))
	}
}

// TestRandomFailuresGenerator: the DES fires every event of a generated
// schedule, each in the epoch it names and none in the cold first epoch.
func TestRandomFailuresGenerator(t *testing.T) {
	cfg := testConfig(16, ftcache.KindNVMe)
	cfg.Failures = failure.Random(5, cfg.Epochs, 3)
	want := make([]int, cfg.Epochs)
	for _, e := range cfg.Failures {
		want[e.Epoch]++
	}
	res := Run(cfg)
	if res.Aborted || res.Restarts != 5 || len(res.Epochs) != cfg.Epochs {
		t.Fatalf("aborted=%v restarts=%d epochs=%d; want false, 5, %d",
			res.Aborted, res.Restarts, len(res.Epochs), cfg.Epochs)
	}
	for i, e := range res.Epochs {
		if e.Failures != want[i] {
			t.Errorf("epoch %d failures = %d, want %d", i, e.Failures, want[i])
		}
	}
}

func TestFrontierConfigSanity(t *testing.T) {
	cfg := Frontier(1024, ftcache.KindNVMe)
	if cfg.Dataset.NumFiles != 524288 {
		t.Errorf("dataset files = %d", cfg.Dataset.NumFiles)
	}
	if cfg.Epochs != 5 || cfg.VirtualNodes != 100 {
		t.Errorf("epochs=%d vnodes=%d", cfg.Epochs, cfg.VirtualNodes)
	}
	if cfg.PFS.PerClientCap >= float64(storage.GiB) {
		t.Errorf("PFS per-client cap should reflect small random reads")
	}
}

func BenchmarkRunScaled(b *testing.B) {
	cfg := testConfig(64, ftcache.KindNVMe)
	cfg.Failures = failure.Random(2, cfg.Epochs, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
}
