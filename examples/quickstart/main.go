// Quickstart: boot a 4-node FT-Cache cluster in-process, stage a small
// dataset on the PFS, and train 4 epochs on 4 ranks the way the paper's
// CosmoFlow job does: each step every rank reads a shuffled batch
// through its fault-tolerant client, then all ranks meet at a barrier.
// Node 1 goes silent at the start of epoch 3. Its rank dies with it,
// the epoch rolls back and reruns on 3 ranks, and the hash ring
// recaches the lost files with exactly one extra PFS read per file.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        4,
		Strategy:     repro.StrategyNVMe, // the paper's hash-ring recaching
		RPCTimeout:   100 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// A laptop-sized slice of the CosmoFlow geometry: 128 files of 4 KiB.
	ds := repro.CosmoFlowTrain().Scaled(4096).WithFileBytes(4096)
	staged, err := cluster.Stage(ds)
	if err != nil {
		log.Fatal(err)
	}
	victim := cluster.Nodes()[1]
	fmt.Printf("staged %d files (%d bytes) on the PFS; %s fails in epoch 3\n\n", ds.NumFiles, staged, victim)

	// Rank i runs on node i. Epoch 1 misses everywhere and each owner
	// caches what it fetched; the failure plan counts epochs from 0.
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
		log.Fatal(err)
	}
	defer trainer.Close()
	rep, err := trainer.Run(context.Background())
	if err != nil || rep.Aborted {
		log.Fatalf("training: %v %v", err, rep.AbortErr)
	}

	for i, label := range []string{"cold", "cached", "recaching", "healed"} {
		e := rep.Epochs[i]
		epoch := fmt.Sprintf("epoch %d (%s):", i+1, label)
		fmt.Printf("%-21s ranks: %d  rollbacks: %d  time: %-7v PFS accesses: %d\n",
			epoch, e.Workers, e.Restarts, e.Duration.Round(time.Millisecond), e.PFSReads)
	}
	lost, _ := cluster.Server(victim).NVMe().Stats()
	fmt.Printf("\n%s cached %d files: each was read from the PFS once more\n", victim, lost)
}
