package repro_test

import (
	"context"
	"testing"
	"time"

	"repro"
)

// TestPublicAPIQuickstart drives the root package exactly as
// examples/quickstart does and checks the figures it prints: 4 ranks
// on 4 nodes train 4 epochs, node 1 fails at the start of epoch index
// 2, and the epochs read every file from the PFS (cold), none (cached),
// one per file the victim held (recaching: one rollback, 3 ranks left)
// and none again (healed).
func TestPublicAPIQuickstart(t *testing.T) {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        4,
		Strategy:     repro.StrategyNVMe,
		RPCTimeout:   100 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ds := repro.CosmoFlowTrain().Scaled(4096).WithFileBytes(4096)
	if _, err := cluster.Stage(ds); err != nil {
		t.Fatal(err)
	}
	victim := cluster.Nodes()[1]
	trainer, err := repro.NewTrainer(repro.TrainConfig{
		Cluster:   cluster,
		Dataset:   ds,
		Workers:   4,
		Epochs:    4,
		BatchSize: 4,
		Seed:      1,
		Failures:  []repro.FailureEvent{{Epoch: 2, Node: string(victim)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	rep, err := trainer.Run(context.Background())
	if err != nil || rep.Aborted {
		t.Fatalf("run: %v aborted=%v (%v)", err, rep.Aborted, rep.AbortErr)
	}
	if len(rep.Epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(rep.Epochs))
	}

	lost, _ := cluster.Server(victim).NVMe().Stats()
	if lost == 0 {
		t.Fatalf("victim %s holds no files", victim)
	}
	// pfs_reads_per_lost_file == 1: each lost file is fetched once, by
	// its new owner.
	want := []int64{int64(ds.NumFiles), 0, int64(lost), 0}
	for i, e := range rep.Epochs {
		if e.PFSReads != want[i] || e.Samples != ds.NumFiles {
			t.Errorf("epoch %d: %d PFS reads and %d samples, want %d and %d", i, e.PFSReads, e.Samples, want[i], ds.NumFiles)
		}
	}
	if e := rep.Epochs[2]; e.Restarts != 1 || e.Workers != 3 {
		t.Errorf("epoch 2: %d restarts on %d ranks, want 1 on 3", e.Restarts, e.Workers)
	}
}

// TestPublicAPITraining runs repro.NewTrainer on a failure-free
// cluster and checks that every epoch it was asked for completes.
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
	if _, err := cluster.Stage(ds); err != nil {
		t.Fatal(err)
	}

	trainer, err := repro.NewTrainer(repro.TrainConfig{
		Cluster:   cluster,
		Dataset:   ds,
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
