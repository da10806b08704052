// Command ftcsim exposes the Frontier-scale training model directly, for
// exploring configurations beyond the paper's fixed experiment grid:
//
//	ftcsim -nodes 512 -strategy ftnvme -failures 3
//	ftcsim -nodes 1024 -strategy ftnvme -replication 2 -failures 5 -vnodes 1000
//	ftcsim -nodes 64 -strategy ftpfs -failures 1 -epochs 10 -divisor 8
//
// It prints the per-epoch breakdown and summary for a single run — the
// knob-turning companion to cmd/ftcbench's fixed tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/trainsim"
	"repro/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 64, "compute nodes")
	strategy := flag.String("strategy", "ftnvme", "noft|ftpfs|ftnvme")
	failures := flag.Int("failures", 0, "random single-node failures after epoch 1")
	epochs := flag.Int("epochs", 5, "training epochs")
	vnodes := flag.Int("vnodes", 100, "virtual nodes per physical node")
	replication := flag.Int("replication", 0, "cached copies per file (ftnvme extension; 0/1 = off)")
	localBatch := flag.Int("local-batch", 8, "samples per node per step")
	divisor := flag.Int("divisor", 1, "shrink the CosmoFlow dataset by this factor")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	kind := ftcache.StrategyKind(*strategy)
	switch kind {
	case ftcache.KindNoFT, ftcache.KindPFS, ftcache.KindNVMe:
	default:
		fmt.Fprintf(os.Stderr, "ftcsim: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	cfg := trainsim.Frontier(*nodes, kind)
	cfg.Epochs = *epochs
	cfg.VirtualNodes = *vnodes
	cfg.Replication = *replication
	cfg.LocalBatch = *localBatch
	cfg.Seed = *seed
	if *divisor > 1 {
		cfg.Dataset = workload.CosmoFlowTrain().Scaled(*divisor)
	}
	if *failures > 0 {
		if *epochs < 2 {
			fmt.Fprintln(os.Stderr, "ftcsim: failures need at least 2 epochs")
			os.Exit(2)
		}
		cfg.Failures = failure.Random(*failures, cfg.Epochs, *seed+7)
	}

	fmt.Printf("ftcsim: %d nodes, %s, %d files × %d B, %d epochs, %d failure(s), vnodes=%d",
		*nodes, kind, cfg.Dataset.NumFiles, cfg.Dataset.FileBytes, cfg.Epochs,
		*failures, cfg.VirtualNodes)
	if *replication > 1 {
		fmt.Printf(", replication=%d", *replication)
	}
	fmt.Println()

	start := time.Now()
	res := trainsim.Run(cfg)
	wall := time.Since(start)

	fmt.Printf("\n%6s %12s %8s %6s %6s %10s\n",
		"epoch", "sim time", "workers", "fails", "post", "PFS reads")
	for _, e := range res.Epochs {
		post := ""
		if e.PostFailure {
			post = "yes"
		}
		fmt.Printf("%6d %12s %8d %6d %6s %10d\n",
			e.Epoch, e.Duration.Round(time.Millisecond), e.Workers, e.Failures, post, e.PFSReads)
	}
	fmt.Println()
	if res.Aborted {
		fmt.Printf("ABORTED after %v simulated (job terminated by node failure)\n",
			res.Total.Round(time.Second))
	} else {
		fmt.Printf("total simulated time: %v\n", res.Total.Round(time.Second))
	}
	fmt.Printf("restarts: %d   total PFS reads: %d\n", res.Restarts, res.PFSReads)
	if clean := res.CleanEpochMean(); clean > 0 {
		fmt.Printf("clean epoch mean:     %v\n", clean.Round(time.Millisecond))
	}
	if victim := res.VictimEpochMean(); victim > 0 {
		fmt.Printf("victim epoch mean:    %v\n", victim.Round(time.Millisecond))
	}
	if post := res.PostFailureEpochMean(); post > 0 {
		fmt.Printf("post-failure mean:    %v\n", post.Round(time.Millisecond))
	}
	fmt.Printf("(computed in %v of wall time)\n", wall.Round(time.Millisecond))
}
