package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/ftcache"
)

// This file holds extension experiments beyond the paper's published
// evaluation — the ablations DESIGN.md calls out.

// ExtReplicationRow compares hash-ring recaching (the paper's design)
// against the replication extension at one scale, under the Fig 5(b)
// failure plan.
type ExtReplicationRow struct {
	Nodes int
	// Base is the no-failure total.
	Base time.Duration
	// Recache is FT w/ NVMe (R=1), the paper's design.
	Recache         time.Duration
	RecachePFSReads int64
	// Replicated is FT w/ NVMe with R cached copies.
	Replicated         time.Duration
	ReplicatedPFSReads int64
}

// ExtReplicationResult is the replication-vs-recache comparison.
type ExtReplicationResult struct {
	Factor int
	Rows   []ExtReplicationRow
}

// ExtReplication runs the comparison with replication factor 2. Cold
// first-epoch PFS reads are identical by construction; the interesting
// column is post-failure PFS traffic (recache pays one read per lost
// file, replication pays none until copies are exhausted) and the
// resulting end-to-end time.
func (w *Sweep) ExtReplication() ExtReplicationResult {
	const factor = 2
	s := w.s
	res := ExtReplicationResult{Factor: factor}
	for _, n := range s.Nodes {
		base := w.run(s.trainConfig(n, ftcache.KindNVMe, s.Seed))

		rc := s.trainConfig(n, ftcache.KindNVMe, s.Seed)
		rc.Failures = failure.Random(5, rc.Epochs, s.Seed+7)
		recache := w.run(rc)

		rp := rc
		rp.Replication = factor
		replicated := w.run(rp)

		coldReads := int64(rc.Dataset.NumFiles)
		res.Rows = append(res.Rows, ExtReplicationRow{
			Nodes:              n,
			Base:               base.Total,
			Recache:            recache.Total,
			RecachePFSReads:    recache.PFSReads - coldReads,
			Replicated:         replicated.Total,
			ReplicatedPFSReads: replicated.PFSReads - coldReads,
		})
	}
	return res
}

// Format renders the comparison.
func (r ExtReplicationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: recaching vs %d-way replication (5 random failures)\n", r.Factor)
	fmt.Fprintf(&b, "%6s %10s | %12s %14s | %12s %14s\n",
		"nodes", "no-fail", "recache", "post-fail PFS", "replicated", "post-fail PFS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %10s | %12s %14d | %12s %14d\n",
			row.Nodes,
			row.Base.Round(time.Second),
			row.Recache.Round(time.Second), row.RecachePFSReads,
			row.Replicated.Round(time.Second), row.ReplicatedPFSReads)
	}
	b.WriteString("  replication trades cache capacity (R× NVMe) for zero-PFS failover\n")
	return b.String()
}

// ExtVnodeSweepRow is one point of the virtual-node end-to-end ablation:
// Fig 6(b) studies redistribution balance in isolation; this runs the
// full failure workload at different virtual-node counts to show the
// balance effect (and its diminishing returns) in training time.
type ExtVnodeSweepRow struct {
	VirtualNodes int
	Total        time.Duration
	// VictimEpoch is the mean epoch duration where failures struck.
	VictimEpoch time.Duration
}

// ExtVnodeSweepResult is the end-to-end virtual-node ablation.
type ExtVnodeSweepResult struct {
	Nodes int
	Rows  []ExtVnodeSweepRow
}

// ExtVnodeSweep runs the Fig 5(b) workload at the largest configured
// scale across virtual-node settings.
func (w *Sweep) ExtVnodeSweep() ExtVnodeSweepResult {
	s := w.s
	n := s.Nodes[len(s.Nodes)-1]
	res := ExtVnodeSweepResult{Nodes: n}
	for _, v := range []int{1, 10, 100, 1000} {
		cfg := s.trainConfig(n, ftcache.KindNVMe, s.Seed)
		cfg.VirtualNodes = v
		cfg.Failures = failure.Random(5, cfg.Epochs, s.Seed+7)
		out := w.run(cfg)
		res.Rows = append(res.Rows, ExtVnodeSweepRow{
			VirtualNodes: v,
			Total:        out.Total,
			VictimEpoch:  out.VictimEpochMean(),
		})
	}
	return res
}

// Format renders the sweep.
func (r ExtVnodeSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: virtual-node count vs training time (%d nodes, 5 failures)\n", r.Nodes)
	fmt.Fprintf(&b, "%7s %12s %14s\n", "vnodes", "total", "victim epoch")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7d %12s %14s\n",
			row.VirtualNodes, row.Total.Round(time.Second), row.VictimEpoch.Round(time.Second))
	}
	return b.String()
}
