// CosmoFlow scenario: the paper's motivating workload. Runs the same
// data-parallel training job (shuffled epochs, batch-synchronous steps,
// elastic rollback) under all three fault-tolerance strategies with an
// identical mid-training node failure, on a live in-process cluster,
// and prints the end-to-end comparison.
//
//	go run ./examples/cosmoflow
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

const (
	nodes     = 6
	workers   = 6
	epochs    = 4
	batchSize = 4
)

func main() {
	// A laptop-scale CosmoFlow: 192 files, 8 KiB each.
	ds := repro.CosmoFlowTrain().Scaled(2730).WithFileBytes(8192)
	fmt.Printf("dataset: %d files × %d bytes; %d nodes, %d epochs\n\n",
		ds.NumFiles, ds.FileBytes, nodes, epochs)

	for _, strategy := range []repro.StrategyKind{
		repro.StrategyNoFT, repro.StrategyPFS, repro.StrategyNVMe,
	} {
		runOne(strategy, ds)
	}
}

func runOne(strategy repro.StrategyKind, ds repro.Dataset) {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        nodes,
		Strategy:     strategy,
		RPCTimeout:   80 * time.Millisecond,
		TimeoutLimit: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Stage(ds); err != nil {
		log.Fatal(err)
	}

	trainer, err := repro.NewTrainer(repro.TrainConfig{
		Cluster:   cluster,
		Dataset:   repro.TrainDataset(ds),
		Workers:   workers,
		Epochs:    epochs,
		BatchSize: batchSize,
		Seed:      42,
		// One node dies early in epoch 1, after the cache is warm —
		// the paper's injection protocol.
		Failures: []repro.TrainFailure{{Epoch: 1, Frac: 0.2}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	rep, err := trainer.Run(context.Background())
	if err != nil {
		log.Fatalf("%s: %v", strategy, err)
	}

	fmt.Printf("=== %s ===\n", strategy)
	if rep.Aborted {
		fmt.Printf("  JOB TERMINATED after %d epoch(s): %v\n", len(rep.Epochs), rep.AbortErr)
		fmt.Printf("  (the baseline HVAC has no fault tolerance: all progress lost)\n\n")
		return
	}
	for _, e := range rep.Epochs {
		marker := ""
		if e.Restarts > 0 {
			marker = fmt.Sprintf("  <- failure: rolled back ×%d, continued on %d workers",
				e.Restarts, e.Workers)
		}
		fmt.Printf("  epoch %d: %-10v workers=%d samples=%d%s\n",
			e.Epoch, e.Duration.Round(time.Millisecond), e.Workers, e.Samples, marker)
	}
	st := rep.ClientStats
	fmt.Printf("  total=%v nvme-reads=%d server-pfs-reads=%d direct-pfs-reads=%d timeouts=%d\n\n",
		rep.Total.Round(time.Millisecond), st.ServedNVMe, st.ServedPFS, st.DirectPFS, st.Timeouts)
}
