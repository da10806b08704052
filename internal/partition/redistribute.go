package partition

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/hashring"
	"repro/internal/stats"
)

// The Monte-Carlo load-redistribution study behind the paper's Fig 6(b):
// on a 1024-physical-node hash ring, fail one random node and measure
// (a) how many surviving nodes receive its files and (b) how many files
// each receiver absorbs, as the virtual-node count sweeps from 10 to
// 1000 per physical node. 500 trials per setting; the plotted values are
// means, the error bars standard deviations.
//
// The simulation runs against the real hashring package — the same code
// the live cache uses — so the figure measures the actual system, not an
// abstraction of it. This mirrors the artifact's
// load_distribution_simul.cpp.

// RedistributeConfig parameterizes one sweep point.
type RedistributeConfig struct {
	// PhysicalNodes on the ring (paper: 1024).
	PhysicalNodes int
	// VirtualNodes per physical node (the sweep variable).
	VirtualNodes int
	// Keys is the cached-key population (paper: the CosmoFlow training
	// set's 524,288 paths).
	Keys []string
	// Trials is the Monte-Carlo repetition count (paper: 500).
	Trials int
	// Seed makes the experiment reproducible.
	Seed int64
	// SimultaneousFailures is how many distinct nodes fail at once per
	// trial; <= 0 selects 1 (the paper's single-failure protocol).
	// Correlated multi-node failures (a rack or switch dying) are the
	// obvious extension scenario.
	SimultaneousFailures int
}

// RedistributePoint is the aggregated outcome for one virtual-node
// setting.
type RedistributePoint struct {
	VirtualNodes int
	// ReceiverNodes: how many distinct survivors inherited at least one
	// file (mean ± stddev across trials) — Fig 6(b) left axis.
	ReceiverMean   float64
	ReceiverStdDev float64
	// FilesPerReceiver: files landing on each receiver (mean of
	// per-trial means ± pooled stddev of per-receiver counts) —
	// Fig 6(b) right axis.
	FilesPerNodeMean   float64
	FilesPerNodeStdDev float64
	// LostMean is the average number of files the failed node held.
	LostMean float64
	// Trials actually executed.
	Trials int
}

// Redistribute executes the Monte-Carlo sweep point.
//
// Building a fresh 1024-node ring per trial would dominate runtime, so
// every trial reads one shared base ring whose owner of each key is
// computed once, and no trial copies it. A lost key's new owner is the
// first survivor clockwise from it: the first of its len(victims)+1
// distinct base-ring owners that is not a victim, which always exists
// and is exactly the owner once the victims' points are removed.
// Trials run on GOMAXPROCS goroutines; each seeds its own RNG and writes
// its own slot, so the result does not depend on the parallelism.
func Redistribute(cfg RedistributeConfig) RedistributePoint {
	if cfg.PhysicalNodes < 2 || cfg.Trials < 1 || len(cfg.Keys) < 1 {
		panic("partition: PhysicalNodes>=2, Trials>=1, Keys>=1 required")
	}
	failures := cfg.SimultaneousFailures
	if failures <= 0 {
		failures = 1
	}
	if failures >= cfg.PhysicalNodes {
		panic("partition: SimultaneousFailures must leave survivors")
	}
	nodes := make([]NodeID, cfg.PhysicalNodes)
	for i := range nodes {
		nodes[i] = NodeID(fmt.Sprintf("node-%04d", i))
	}
	base := hashring.NewWithNodes(hashring.Config{VirtualNodes: cfg.VirtualNodes}, nodes)

	// Precompute each key's owner once: per trial we only need the keys
	// owned by the failed node.
	byOwner := make(map[NodeID][]string, cfg.PhysicalNodes)
	for _, k := range cfg.Keys {
		o, _ := base.Owner(k)
		byOwner[o] = append(byOwner[o], k)
	}

	workers := min(runtime.GOMAXPROCS(0), cfg.Trials)
	// outs[t] is trial t's files per receiver, sorted; each lost file
	// lands on exactly one receiver, so the row sums to the lost count.
	outs := make([][]int, cfg.Trials)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < cfg.Trials; t += workers {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
				dead := make(map[NodeID]bool, failures)
				for _, vi := range pickDistinct(rng, len(nodes), failures) {
					dead[nodes[vi]] = true
				}
				counts := make(map[NodeID]int)
				for victim := range dead {
					for _, k := range byOwner[victim] {
						owners, _ := base.Owners(k, failures+1)
						for _, o := range owners {
							if !dead[o] {
								counts[o]++
								break
							}
						}
					}
				}
				per := make([]int, 0, len(counts))
				for _, c := range counts {
					per = append(per, c)
				}
				// Map iteration order is random; sort so the float
				// accumulation below is bit-for-bit reproducible.
				sort.Ints(per)
				outs[t] = per
			}
		}(w)
	}
	wg.Wait()

	var recv, lost, perAll, perMeans stats.Running
	for _, per := range outs {
		recv.Add(float64(len(per)))
		var m stats.Running
		files := 0
		for _, c := range per {
			files += c
			perAll.Add(float64(c))
			m.Add(float64(c))
		}
		lost.Add(float64(files))
		if m.N() > 0 {
			perMeans.Add(m.Mean())
		}
	}
	return RedistributePoint{
		VirtualNodes:       cfg.VirtualNodes,
		ReceiverMean:       recv.Mean(),
		ReceiverStdDev:     recv.StdDev(),
		FilesPerNodeMean:   perMeans.Mean(),
		FilesPerNodeStdDev: perAll.StdDev(),
		LostMean:           lost.Mean(),
		Trials:             cfg.Trials,
	}
}

// pickDistinct draws k distinct indices from [0, n).
func pickDistinct(rng *rand.Rand, n, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// ExpectedReceivers is the closed-form approximation of Fig 6(b)'s
// receiver count, used to cross-validate the Monte-Carlo:
//
//	lost files  L ≈ files / nodes fall into the victim's V arcs
//	non-empty arcs  A = V·(1−(1−1/V)^L)           (balls into V bins)
//	receivers       R = (N−1)·(1−(1−1/(N−1))^A)   (arcs onto survivors)
//
// Both stages are standard occupancy expectations; the composition
// explains the paper's plateau: once V ≫ L, A saturates at ≈ L and more
// virtual nodes cannot create more receivers than there are lost files.
func ExpectedReceivers(physicalNodes, virtualNodes, files int) float64 {
	if physicalNodes < 2 || virtualNodes < 1 || files < 1 {
		return 0
	}
	l := float64(files) / float64(physicalNodes)
	v := float64(virtualNodes)
	n := float64(physicalNodes - 1)
	arcs := v * (1 - math.Pow(1-1/v, l))
	return n * (1 - math.Pow(1-1/n, arcs))
}

// PaperVirtualNodes is the published Fig 6(b) x-axis.
var PaperVirtualNodes = []int{10, 50, 100, 500, 1000}

// RedistributeSweep runs Redistribute for each virtual-node setting.
func RedistributeSweep(physicalNodes int, keys []string, trials int, seed int64, vnodeSettings []int) []RedistributePoint {
	out := make([]RedistributePoint, 0, len(vnodeSettings))
	for _, v := range vnodeSettings {
		out = append(out, Redistribute(RedistributeConfig{
			PhysicalNodes: physicalNodes,
			VirtualNodes:  v,
			Keys:          keys,
			Trials:        trials,
			Seed:          seed,
		}))
	}
	return out
}
