package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/workload"
)

func smallDataset(files int) workload.Dataset {
	return workload.Dataset{
		Name:      "test",
		Prefix:    "test/train",
		NumFiles:  files,
		FileBytes: 256,
	}
}

func newTestCluster(t *testing.T, nodes int, strategy ftcache.StrategyKind) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes:        nodes,
		Strategy:     strategy,
		RPCTimeout:   60 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterBootAndStage(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(64)
	n, err := c.Stage(ds)
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if want := int64(ds.NumFiles) * ds.FileBytes; n != want {
		t.Errorf("staged %d bytes, want %d", n, want)
	}
	if objs, _ := c.PFS().Stats(); objs != 64 {
		t.Errorf("PFS objects = %d", objs)
	}
	if len(c.Nodes()) != 4 || len(c.aliveNodes()) != 4 {
		t.Error("node accounting broken")
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 0}); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestEndToEndReadAndVerify(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(32)
	c.Stage(ds)
	cli, _, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	// Everything was read once → each file fell back to PFS exactly once.
	reads, _, _ := c.PFS().Counters()
	if reads != int64(ds.NumFiles) {
		t.Errorf("PFS reads = %d, want %d", reads, ds.NumFiles)
	}
	// After movers drain, all files are cached somewhere.
	c.FlushMovers()
	objs := 0
	for _, n := range c.Nodes() {
		o, _ := c.Server(n).NVMe().Stats()
		objs += o
	}
	if objs != ds.NumFiles {
		t.Errorf("cached objects = %d, want %d", objs, ds.NumFiles)
	}
}

func TestWarmCacheMatchesClientPlacement(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(48)
	c.Stage(ds)
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	// Warming is set-up, not an epoch: it costs the PFS no read and no
	// metadata op, and what each owner holds is the PFS's own slice, as
	// a first epoch's miss fill would leave it.
	if reads, _, meta := c.PFS().Counters(); reads != 0 || meta != 0 {
		t.Errorf("warming cost %d PFS reads and %d metadata ops, want 0 and 0", reads, meta)
	}
	for i := 0; i < ds.NumFiles; i++ {
		staged, _ := c.PFS().Peek(ds.FilePath(i))
		holders := 0
		for _, n := range c.Nodes() {
			if got, ok := c.Server(n).NVMe().Peek(ds.FilePath(i)); ok {
				holders++
				if &got[0] != &staged[0] {
					t.Errorf("%s on %s is a copy, not the PFS's object", ds.FilePath(i), n)
				}
			}
		}
		if holders != 1 {
			t.Errorf("%s warmed on %d nodes, want 1", ds.FilePath(i), holders)
		}
	}
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	// Warm cache means zero PFS reads during the epoch.
	reads, _, _ := c.PFS().Counters()
	if reads != 0 {
		t.Errorf("PFS reads after warm = %d, want 0", reads)
	}
	st := cli.Stats()
	if st.ServedNVMe != int64(ds.NumFiles) || st.ServedPFS != 0 {
		t.Errorf("client stats = %+v", st)
	}
}

// TestStrategyNoFTAborts reproduces the paper's baseline behaviour:
// "immediate job termination upon failure".
func TestStrategyNoFTAborts(t *testing.T) {
	for _, mode := range []FailureMode{FailUnresponsive, FailKill} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			c := newTestCluster(t, 3, ftcache.KindNoFT)
			ds := smallDataset(30)
			c.Stage(ds)
			c.WarmCache(ds)
			cli, _, _ := c.NewClient()
			defer cli.Close()
			ctx := context.Background()

			if err := VerifyRead(ctx, cli, ds, 0); err != nil {
				t.Fatalf("healthy read: %v", err)
			}
			victim := c.Nodes()[1]
			if err := c.Fail(victim, mode); err != nil {
				t.Fatal(err)
			}
			// Eventually a read routed at the dead node trips the detector
			// and the job aborts.
			var aborted bool
			for i := 0; i < ds.NumFiles; i++ {
				if _, err := cli.Read(ctx, ds.FilePath(i)); errors.Is(err, hvac.ErrAborted) {
					aborted = true
					break
				}
			}
			if !aborted {
				t.Error("NoFT job did not abort after node failure")
			}
		})
	}
}

// pfsReadsSince returns a function that reports the PFS reads made
// since pfsReadsSince was called.
func pfsReadsSince(c *Cluster) func() int64 {
	before, _, _ := c.PFS().Counters()
	return func() int64 {
		reads, _, _ := c.PFS().Counters()
		return reads - before
	}
}

// TestStrategyPFSRedirect reproduces §IV-A: after detection, victim
// traffic goes to the PFS on every epoch, surviving placement untouched.
func TestStrategyPFSRedirect(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindPFS)
	ds := smallDataset(80)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	victim := c.Nodes()[2]
	c.Fail(victim, FailUnresponsive)
	pfsReads := pfsReadsSince(c)

	// "Epoch" 2: everything still readable.
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("epoch2 verify %d: %v", i, err)
		}
	}
	epoch2Reads := pfsReads()
	if epoch2Reads == 0 {
		t.Fatal("expected PFS redirection traffic")
	}
	// "Epoch" 3: the same files hit PFS AGAIN — redirection never heals.
	pfsReads = pfsReadsSince(c)
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("epoch3 verify %d: %v", i, err)
		}
	}
	epoch3Reads := pfsReads()
	if epoch3Reads != epoch2Reads {
		t.Errorf("PFS reads: epoch2=%d epoch3=%d; redirection should repeat identically",
			epoch2Reads, epoch3Reads)
	}
	if got := cli.Tracker().FailedNodes(); len(got) != 1 {
		t.Errorf("failed nodes = %v, want one", got)
	}
}

// TestStrategyRingRecache reproduces §IV-B: one extra PFS access per lost
// file, then the cache is whole again.
func TestStrategyRingRecache(t *testing.T) {
	c := newTestCluster(t, 4, ftcache.KindNVMe)
	ds := smallDataset(80)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, router, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	// Count how many files the victim holds before failing it.
	victim := c.Nodes()[2]
	lostObjects, _ := c.Server(victim).NVMe().Stats()
	if lostObjects == 0 {
		t.Fatal("victim caches nothing; degenerate test")
	}
	c.Fail(victim, FailUnresponsive)
	pfsReads := pfsReadsSince(c)

	// Post-failure epoch: lost files are fetched from PFS exactly once
	// by their new owners and recached.
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("recache epoch verify %d: %v", i, err)
		}
	}
	reads := pfsReads()
	if reads != int64(lostObjects) {
		t.Errorf("PFS reads = %d, want exactly the %d lost files", reads, lostObjects)
	}
	// Next epoch: zero PFS traffic — the cache healed.
	c.FlushMovers()
	pfsReads = pfsReadsSince(c)
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("healed epoch verify %d: %v", i, err)
		}
	}
	reads = pfsReads()
	if reads != 0 {
		t.Errorf("PFS reads after heal = %d, want 0", reads)
	}
	if rr, ok := router.(*ftcache.Strategy); !ok || rr.Ring().Len() != 3 {
		t.Errorf("ring state: %T", router)
	}
}

func TestFailUnknownAndDouble(t *testing.T) {
	c := newTestCluster(t, 2, ftcache.KindNVMe)
	if err := c.Fail("ghost", FailKill); err == nil {
		t.Error("failing unknown node should error")
	}
	n := c.Nodes()[0]
	if err := c.Fail(n, FailKill); err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(n, FailKill); err != nil {
		t.Errorf("double fail should be a no-op, got %v", err)
	}
	if !c.Failed(n) || len(c.aliveNodes()) != 1 {
		t.Error("failure bookkeeping broken")
	}
	if err := c.Fail(c.Nodes()[1], FailureMode(99)); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestMultipleSequentialFailures mirrors the paper's Fig 5(b) protocol of
// repeated single-node failures: the ring strategy must survive all of
// them with data intact.
func TestMultipleSequentialFailures(t *testing.T) {
	c := newTestCluster(t, 6, ftcache.KindNVMe)
	ds := smallDataset(120)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	for round := 0; round < 3; round++ {
		victim := c.aliveNodes()[round%len(c.aliveNodes())]
		c.Fail(victim, FailUnresponsive)
		for i := 0; i < ds.NumFiles; i++ {
			if err := VerifyRead(ctx, cli, ds, i); err != nil {
				t.Fatalf("round %d verify %d: %v", round, i, err)
			}
		}
		c.FlushMovers()
	}
	if len(c.aliveNodes()) != 3 {
		t.Errorf("alive = %d, want 3", len(c.aliveNodes()))
	}
}

// TestCapacityPressureEviction runs the full failover flow with NVMe
// capacity far below the working set: LRU eviction churns constantly,
// yet every read stays correct — evicted objects transparently refetch
// from the PFS via the server miss path.
func TestCapacityPressureEviction(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Nodes:        3,
		Strategy:     ftcache.KindNVMe,
		RPCTimeout:   60 * time.Millisecond,
		TimeoutLimit: 2,
		// Each node holds only ~4 of its ~27 files at a time.
		NVMeCapacity: 4 * 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := smallDataset(80) // 80 × 256 B, far over 3 × 1 KiB of cache
	c.Stage(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < ds.NumFiles; i++ {
			if err := VerifyRead(ctx, cli, ds, i); err != nil {
				t.Fatalf("epoch %d read %d: %v", epoch, i, err)
			}
		}
	}
	// Under this much pressure the PFS necessarily serves most reads...
	reads, _, _ := c.PFS().Counters()
	if reads < int64(ds.NumFiles) {
		t.Errorf("PFS reads = %d; expected heavy refetching under eviction", reads)
	}
	// ...every node respected its capacity bound, and its full cache met
	// the scan's miss fills with the admission rule: a scan reads no
	// object more often than the residents it would displace.
	refused := int64(0)
	for _, n := range c.aliveNodes() {
		s := c.Server(n).NVMe().Snapshot()
		if s.Bytes > 4*256 {
			t.Errorf("node %s over capacity: %d bytes", n, s.Bytes)
		}
		refused += s.Refused
	}
	if refused == 0 {
		t.Error("expected full caches to turn the scan's fills away")
	}
	// Failover still works with full caches.
	c.Fail(c.Nodes()[0], FailUnresponsive)
	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("post-failure read %d: %v", i, err)
		}
	}
}
