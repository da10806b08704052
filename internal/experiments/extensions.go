package experiments

import (
	"fmt"
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

// Tabulate returns the comparison.
func (r ExtReplicationResult) Tabulate() Table {
	t := Table{
		Title:  fmt.Sprintf("Extension: recaching vs %d-way replication (5 random failures)", r.Factor),
		Header: []string{"nodes", "base_sec", "recache_sec", "recache_pfs_reads", "replicated_sec", "replicated_pfs_reads"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{d(row.Nodes), sec(row.Base),
			sec(row.Recache), d(row.RecachePFSReads), sec(row.Replicated), d(row.ReplicatedPFSReads)})
	}
	return t
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

// Tabulate returns the sweep.
func (r ExtVnodeSweepResult) Tabulate() Table {
	t := Table{
		Title:  fmt.Sprintf("Extension: virtual-node count vs training time (%d nodes, 5 failures)", r.Nodes),
		Header: []string{"vnodes", "total_sec", "victim_epoch_sec"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{d(row.VirtualNodes), sec(row.Total), sec(row.VictimEpoch)})
	}
	return t
}
