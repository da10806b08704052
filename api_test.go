package repro_test

import (
	"context"
	"testing"
	"time"

	"repro"
)

// TestPublicAPIQuickstart exercises the root package the way the README
// quickstart does, and checks the PFS accesses it prints: boot a
// cluster, read everything once (cold), again (cached: no PFS access),
// fail a node, read again (one PFS access per file the victim held),
// and once more (healed: no PFS access).
func TestPublicAPIQuickstart(t *testing.T) {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        4,
		Strategy:     repro.StrategyNVMe,
		RPCTimeout:   60 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ds := repro.CosmoFlowTrain().Scaled(16384).WithFileBytes(512)
	if _, err := cluster.Stage(ds); err != nil {
		t.Fatal(err)
	}
	client, _, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	// pass reads every file, lets the movers settle, and returns the
	// PFS reads it caused.
	pass := func(label string) int64 {
		t.Helper()
		cluster.PFS().ResetCounters()
		for i := 0; i < ds.NumFiles; i++ {
			if _, err := client.Read(ctx, ds.FilePath(i)); err != nil {
				t.Fatalf("%s: read %d: %v", label, i, err)
			}
		}
		cluster.FlushMovers()
		reads, _, _ := cluster.PFS().Counters()
		return reads
	}

	if got := pass("cold"); got != int64(ds.NumFiles) {
		t.Errorf("cold pass: %d PFS reads, want %d", got, ds.NumFiles)
	}
	if got := pass("cached"); got != 0 {
		t.Errorf("cached pass: %d PFS reads, want 0", got)
	}

	victim := cluster.Nodes()[1]
	lost, _ := cluster.Server(victim).NVMe().Stats()
	if lost == 0 {
		t.Fatalf("victim %s holds no files", victim)
	}
	if err := cluster.Fail(victim, repro.FailUnresponsive); err != nil {
		t.Fatal(err)
	}
	// pfs_reads_per_lost_file == 1: each lost file is fetched once, by
	// its new owner.
	if got := pass("after failure"); got != int64(lost) {
		t.Errorf("pass after failure: %d PFS reads, want %d (one per lost file)", got, lost)
	}
	if got := pass("healed"); got != 0 {
		t.Errorf("healed pass: %d PFS reads, want 0", got)
	}
}

func TestPublicAPITraining(t *testing.T) {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        3,
		Strategy:     repro.StrategyNVMe,
		RPCTimeout:   60 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ds := repro.CosmoFlowTrain().Scaled(32768).WithFileBytes(128)
	cluster.Stage(ds)

	trainer, err := repro.NewTrainer(repro.TrainConfig{
		Cluster:   cluster,
		Dataset:   repro.TrainDataset(ds),
		Workers:   3,
		Epochs:    2,
		BatchSize: 2,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	rep, err := trainer.Run(context.Background())
	if err != nil || rep.Aborted {
		t.Fatalf("run: %v aborted=%v", err, rep.Aborted)
	}
	if len(rep.Epochs) != 2 {
		t.Errorf("epochs = %d", len(rep.Epochs))
	}
}

func TestPublicAPIRing(t *testing.T) {
	nodes := []repro.NodeID{"a", "b", "c"}
	ring := repro.NewRing(repro.RingConfig{VirtualNodes: 50}, nodes)
	owner, ok := ring.Owner("some/file")
	if !ok {
		t.Fatal("no owner")
	}
	found := false
	for _, n := range nodes {
		if n == owner {
			found = true
		}
	}
	if !found {
		t.Errorf("owner %q not in node set", owner)
	}
}
