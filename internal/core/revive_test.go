package core

import (
	"context"
	"testing"

	"repro/internal/ftcache"
)

// TestReviveUnresponsiveNode: elastic scale-up after a transient outage.
// The node's cache survived, so after revival it serves its arcs from
// NVMe with zero extra PFS traffic.
func TestReviveUnresponsiveNode(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(80)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, router, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	victim := c.Nodes()[1]
	c.Fail(victim, FailUnresponsive)
	// Trip the detector so the ring drops the node.
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatal(err)
		}
	}
	ring := router.(*ftcache.Strategy).Ring()
	if ring.Len() != 3 {
		t.Fatalf("ring members = %d after failure", ring.Len())
	}

	// Recovery: server answers again, cluster and client re-admit it.
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	if !cli.ReviveNode(victim) {
		t.Fatal("client revive reported no transition")
	}
	if cli.ReviveNode(victim) {
		t.Error("double revive should be a no-op")
	}
	if ring.Len() != 4 {
		t.Fatalf("ring members = %d after revival", ring.Len())
	}

	// The node reclaims its original arcs; its cache is intact, so the
	// whole epoch is PFS-free (the ring's minimal-movement property
	// applies symmetrically on re-add).
	c.FlushMovers()
	c.PFS().ResetCounters()
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("post-revival read %d: %v", i, err)
		}
	}
	if reads, _, _ := c.PFS().Counters(); reads != 0 {
		t.Errorf("PFS reads after unresponsive-revival = %d, want 0", reads)
	}
	if !cli.Tracker().IsAlive(victim) {
		t.Error("tracker still reports victim failed")
	}
}

// TestReviveKilledNode: a hard-killed node comes back empty (rebooted);
// it re-warms through its server's miss path — at most its own files hit
// the PFS once.
func TestReviveKilledNode(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(80)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	victim := c.Nodes()[2]
	c.Fail(victim, FailKill)
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushMovers()

	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	cli.ReviveNode(victim)
	c.PFS().ResetCounters()
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("post-revival read %d: %v", i, err)
		}
	}
	// The replacement daemon's cache was empty; only files on its arcs
	// may have refetched, and only once each.
	reads, _, _ := c.PFS().Counters()
	objs, _ := c.Server(victim).NVMe().Stats()
	if reads == 0 {
		t.Error("expected re-warm traffic for the rebooted node")
	}
	if int(reads) > ds.NumFiles/2 {
		t.Errorf("re-warm reads = %d, should be bounded by the node's arc share", reads)
	}
	if objs == 0 {
		t.Error("revived node cached nothing")
	}
	// Heal check: next epoch is PFS-free again.
	c.FlushMovers()
	c.PFS().ResetCounters()
	for i := 0; i < ds.NumFiles; i++ {
		VerifyRead(ctx, cli, ds, i)
	}
	if reads, _, _ := c.PFS().Counters(); reads != 0 {
		t.Errorf("PFS reads after heal = %d", reads)
	}
}

func TestReviveErrorsAndNoops(t *testing.T) {
	c := newTestCluster(t, 2, ftcache.KindNVMe)
	if err := c.Revive("ghost"); err == nil {
		t.Error("reviving unknown node should error")
	}
	if err := c.Revive(c.Nodes()[0]); err != nil {
		t.Errorf("reviving healthy node should be a no-op, got %v", err)
	}
	cli, _, _ := c.NewClient()
	defer cli.Close()
	if cli.ReviveNode(c.Nodes()[0]) {
		t.Error("reviving a healthy node on the client should report false")
	}
}

func TestPFSRedirectRecovery(t *testing.T) {
	c := newTestCluster(t, 3, ftcache.KindPFS)
	ds := smallDataset(60)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	victim := c.Nodes()[1]
	c.Fail(victim, FailUnresponsive)
	for i := 0; i < ds.NumFiles; i++ {
		VerifyRead(ctx, cli, ds, i)
	}
	if cli.Stats().DirectPFS == 0 {
		t.Fatal("redirection not active")
	}
	c.Revive(victim)
	cli.ReviveNode(victim)
	before := cli.Stats().DirectPFS
	c.PFS().ResetCounters()
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatal(err)
		}
	}
	if after := cli.Stats().DirectPFS; after != before {
		t.Errorf("redirection continued after recovery: %d -> %d", before, after)
	}
}
