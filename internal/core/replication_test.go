package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/ftcache"
)

func newReplCluster(t *testing.T, nodes, replication int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes:        nodes,
		Strategy:     ftcache.KindNVMe,
		Replication:  replication,
		RPCTimeout:   60 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestReplicationZeroPFSFailover is the extension's headline: with two
// cached copies per file, a primary failure is absorbed with ZERO PFS
// reads — the ring's new owner for every lost file is exactly the node
// already holding the second replica.
func TestReplicationZeroPFSFailover(t *testing.T) {
	c := newReplCluster(t, 5, 2)
	ds := smallDataset(100)
	c.Stage(ds)
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	cli, _, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	victim := c.Nodes()[2]
	if objs, _ := c.Server(victim).NVMe().Stats(); objs == 0 {
		t.Fatal("victim holds nothing; degenerate")
	}
	c.Fail(victim, FailUnresponsive)
	pfsReads := pfsReadsSince(c)

	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatalf("post-failure read %d: %v", i, err)
		}
	}
	reads := pfsReads()
	if reads != 0 {
		t.Errorf("PFS reads after failover = %d, want 0 (replication)", reads)
	}
}

// TestReplicationWarmPlacesRCopies checks the warm path puts every file
// on exactly R distinct nodes.
func TestReplicationWarmPlacesRCopies(t *testing.T) {
	const files, r = 60, 3
	c := newReplCluster(t, 6, r)
	ds := smallDataset(files)
	c.Stage(ds)
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range c.Nodes() {
		objs, _ := c.Server(n).NVMe().Stats()
		total += objs
	}
	if total != files*r {
		t.Errorf("cached copies = %d, want %d", total, files*r)
	}
}

// TestReplicationOnMissPath verifies client-driven replication: a cold
// read (PFS fallback) fans the object out to the secondary owners.
func TestReplicationOnMissPath(t *testing.T) {
	c := newReplCluster(t, 4, 2)
	ds := smallDataset(40)
	c.Stage(ds)
	cli, router, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	for i := 0; i < ds.NumFiles; i++ {
		if err := VerifyRead(ctx, cli, ds, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c.FlushMovers()

	if pushes := cli.Stats().ReplicaPushes; pushes != int64(ds.NumFiles) {
		t.Errorf("replica pushes = %d, want %d", pushes, ds.NumFiles)
	}
	// Every file must now live on its two ring owners.
	repl := router.(*ftcache.Strategy)
	for i := 0; i < ds.NumFiles; i++ {
		path := ds.FilePath(i)
		owners := repl.Replicas(path, 2)
		if len(owners) != 2 {
			t.Fatalf("owners of %s = %v", path, owners)
		}
		for _, o := range owners {
			if !c.Server(o).NVMe().Has(path) {
				t.Errorf("%s missing replica on %s", path, o)
			}
		}
	}
}

// TestReplicationSurvivesSequentialFailures: R=3 tolerates two failures
// of a file's owners back-to-back without PFS traffic.
func TestReplicationSurvivesSequentialFailures(t *testing.T) {
	c := newReplCluster(t, 6, 3)
	ds := smallDataset(120)
	c.Stage(ds)
	c.WarmCache(ds)
	cli, _, _ := c.NewClient()
	defer cli.Close()
	ctx := context.Background()

	pfsReads := pfsReadsSince(c)
	for round := 0; round < 2; round++ {
		victim := c.aliveNodes()[0]
		c.Fail(victim, FailUnresponsive)
		for i := 0; i < ds.NumFiles; i++ {
			if err := VerifyRead(ctx, cli, ds, i); err != nil {
				t.Fatalf("round %d read %d: %v", round, i, err)
			}
		}
	}
	reads := pfsReads()
	if reads != 0 {
		t.Errorf("PFS reads across two failovers = %d, want 0 with R=3", reads)
	}
}

func TestReplicationRequiresReplicatorRouter(t *testing.T) {
	// NoFT/PFSRedirect don't implement Replicator; the client must
	// reject the configuration instead of silently not replicating.
	c, err := NewCluster(ClusterConfig{
		Nodes:       3,
		Strategy:    ftcache.KindPFS,
		Replication: 2,
		RPCTimeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.NewClient(); err == nil {
		t.Error("ReplicationFactor with non-Replicator router should fail")
	}
}
