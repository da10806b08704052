package core

import (
	"context"
	"testing"

	"repro/internal/ftcache"
	"repro/internal/workload"
)

// TestZipfMissFillsPFSShare runs one client's seeded Zipf 1.1 stream
// over a dataset twice the cache on the four-node, 4 KiB-object shape
// of the suite's zipf_tiered workload (1.5 MiB of NVMe and 512 KiB of
// RAM a node), one read at a time, so the count is deterministic. The
// PFS serves what neither tier holds: with both tiers admitting by read
// count and a promotion moving its object, that is 6.0 % of the 40k
// reads after a 60k-read warm-up, held to at most 6.5 % (a plain-LRU
// NVMe under promotions that copy served 7.2 %).
func TestZipfMissFillsPFSShare(t *testing.T) {
	const files, warm, measured = 4096, 60000, 40000
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, Strategy: ftcache.KindNVMe, VirtualNodes: 100,
		NVMeCapacity: 1536 << 10, RAMCapacity: 512 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := workload.Dataset{Name: "zipf", Prefix: "zipf/train", NumFiles: files, FileBytes: 4096}
	c.Stage(ds)
	cli, _, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	z := workload.NewZipf(1.1, files, 1)
	ctx := context.Background()
	var before int64
	for n := 0; n < warm+measured; n++ {
		if n == warm {
			before, _, _ = c.PFS().Counters()
		}
		if err := VerifyRead(ctx, cli, ds, z.Next()); err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
	}
	after, _, _ := c.PFS().Counters()
	share := float64(after-before) / measured
	t.Logf("PFS reads per read: %.4f", share)
	if share > 0.065 {
		t.Errorf("PFS served %.4f of the reads, want <= 0.065", share)
	}
}
