package trainsim

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/ftcache"
)

// TestReplicationEliminatesFailoverPFSReads: with R=2, a single failure
// costs no PFS reads at all — every lost file's new ring owner already
// holds the replica.
func TestReplicationEliminatesFailoverPFSReads(t *testing.T) {
	cfg := testConfig(16, ftcache.KindNVMe)
	cfg.Replication = 2
	cfg.Failures = []failure.Event{{Epoch: 2, Frac: 0.1, Node: "node-0005"}}
	res := Run(cfg)
	if res.Aborted {
		t.Fatal("aborted")
	}
	for _, e := range res.Epochs {
		if e.Epoch >= 1 && e.PFSReads != 0 {
			t.Errorf("epoch %d PFS reads = %d, want 0 with replication", e.Epoch, e.PFSReads)
		}
	}
	// Compare against R=1: same failure must cost PFS reads there.
	cfg1 := testConfig(16, ftcache.KindNVMe)
	cfg1.Failures = cfg.Failures
	res1 := Run(cfg1)
	post1 := int64(0)
	for _, e := range res1.Epochs {
		if e.Epoch >= 1 {
			post1 += e.PFSReads
		}
	}
	if post1 == 0 {
		t.Fatal("R=1 run shows no recache traffic; test degenerate")
	}
	if res.Total >= res1.Total {
		t.Errorf("replicated run (%v) should not be slower than recache (%v)",
			res.Total, res1.Total)
	}
}

// TestReplicationExhaustion: R=2 absorbs the first failure free, but a
// second failure can exhaust replicas of some files, forcing refetches
// (which restore the replica count).
func TestReplicationExhaustion(t *testing.T) {
	cfg := testConfig(8, ftcache.KindNVMe)
	cfg.Replication = 2
	cfg.Failures = []failure.Event{
		{Epoch: 1, Frac: 0.05, Node: "node-0001"},
		{Epoch: 2, Frac: 0.05, Node: "node-0002"},
		{Epoch: 3, Frac: 0.05, Node: "node-0003"},
	}
	res := Run(cfg)
	if res.Aborted {
		t.Fatal("aborted")
	}
	if res.Restarts != 3 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	// Later failures may hit files whose replica died earlier; total
	// post-failure reads must be far below the R=1 equivalent but need
	// not be exactly zero.
	var postRepl int64
	for _, e := range res.Epochs {
		if e.Epoch >= 1 {
			postRepl += e.PFSReads
		}
	}
	cfg1 := testConfig(8, ftcache.KindNVMe)
	cfg1.Failures = cfg.Failures
	res1 := Run(cfg1)
	var post1 int64
	for _, e := range res1.Epochs {
		if e.Epoch >= 1 {
			post1 += e.PFSReads
		}
	}
	if post1 == 0 {
		t.Fatal("baseline shows no recache traffic")
	}
	if postRepl >= post1/2 {
		t.Errorf("replication should absorb most refetches: repl=%d base=%d", postRepl, post1)
	}
}

func TestReplicationNoFailureIdentical(t *testing.T) {
	// Without failures, replication must not change epoch timing (pushes
	// are off the critical path).
	a := Run(testConfig(16, ftcache.KindNVMe))
	cfg := testConfig(16, ftcache.KindNVMe)
	cfg.Replication = 3
	b := Run(cfg)
	if a.Total != b.Total {
		t.Errorf("replication changed no-failure total: %v vs %v", a.Total, b.Total)
	}
}

func TestExtensionExperimentsRunAtTinyScale(t *testing.T) {
	// Smoke the experiment harness wrappers (see package experiments for
	// the shape assertions).
	cfg := testConfig(8, ftcache.KindNVMe)
	cfg.Replication = 2
	cfg.Failures = failure.Random(2, cfg.Epochs, 3)
	res := Run(cfg)
	if res.Aborted || len(res.Epochs) != cfg.Epochs {
		t.Fatalf("run: %+v", res)
	}
}
