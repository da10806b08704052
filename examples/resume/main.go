// Resume: the full fault-tolerance story. A training job on the
// fault-INTOLERANT baseline (NoFT) dies when a node fails — but because
// it checkpointed after each epoch (node-local NVMe write, async PFS
// drain), the "next submission" resumes from the last durable epoch
// instead of losing everything. Then the same failure is replayed under
// hash-ring recaching, which simply does not die.
//
//	go run ./examples/resume
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

const epochs = 4

func main() {
	ds := repro.CosmoFlowTrain().Scaled(4096).WithFileBytes(2048)

	fmt.Println("=== run 1: NoFT baseline, node fails in epoch 2 ===")
	cluster1 := mustCluster(repro.StrategyNoFT)
	defer cluster1.Close()
	mustStage(cluster1, ds)
	ck, err := repro.NewCheckpointer(cluster1, 0, repro.CheckpointConfig{Keep: 2})
	if err != nil {
		log.Fatal(err)
	}

	rep1 := mustRun(cluster1, ds, repro.TrainConfig{
		Checkpointer: ck,
		Failures:     []repro.TrainFailure{{Epoch: 2, Frac: 0.1}},
	})
	if !rep1.Aborted {
		log.Fatal("expected the NoFT job to die")
	}
	fmt.Printf("job TERMINATED after %d completed epoch(s): %v\n",
		len(rep1.Epochs), rep1.AbortErr)
	ck.Drain()
	meta, _, err := ck.Latest()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durable checkpoint: epoch %d (written to NVMe, drained to PFS)\n\n", meta.Epoch)

	fmt.Println("=== run 2: resubmission resumes from the checkpoint ===")
	cluster2 := mustCluster(repro.StrategyNoFT)
	defer cluster2.Close()
	mustStage(cluster2, ds)
	rep2 := mustRun(cluster2, ds, repro.TrainConfig{
		Checkpointer: ck,
		Resume:       true,
	})
	fmt.Printf("resumed from epoch %d; ran epochs", rep2.ResumedFromEpoch)
	for _, e := range rep2.Epochs {
		fmt.Printf(" %d", e.Epoch)
	}
	fmt.Printf(" — no wasted recomputation\n\n")

	fmt.Println("=== run 3: same failure under FT w/ NVMe (hash-ring recaching) ===")
	cluster3 := mustCluster(repro.StrategyNVMe)
	defer cluster3.Close()
	mustStage(cluster3, ds)
	rep3 := mustRun(cluster3, ds, repro.TrainConfig{
		Failures: []repro.TrainFailure{{Epoch: 2, Frac: 0.1}},
	})
	if rep3.Aborted {
		log.Fatal("ring-recaching run should survive")
	}
	fmt.Printf("survived in-place: %d epochs, finished on %d workers, total %v\n",
		len(rep3.Epochs), rep3.FinalWorkers, rep3.Total.Round(time.Millisecond))
	fmt.Println("(no resubmission, no queue wait, no lost epoch — the paper's point)")
}

func mustCluster(kind repro.StrategyKind) *repro.Cluster {
	c, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        4,
		Strategy:     kind,
		RPCTimeout:   80 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func mustStage(c *repro.Cluster, ds repro.Dataset) {
	if _, err := c.Stage(ds); err != nil {
		log.Fatal(err)
	}
}

func mustRun(c *repro.Cluster, ds repro.Dataset, cfg repro.TrainConfig) repro.TrainReport {
	cfg.Cluster = c
	cfg.Dataset = repro.TrainDataset(ds)
	cfg.Workers = 4
	cfg.Epochs = epochs
	cfg.BatchSize = 4
	cfg.Seed = 11
	tr, err := repro.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	rep, err := tr.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return rep
}
