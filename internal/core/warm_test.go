package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ftcache"
	"repro/internal/workload"
)

// TestWarmCacheUnstagedIsAnError: warming places the PFS's own objects,
// so a file the PFS does not hold is an error naming it, not content
// made up for it.
func TestWarmCacheUnstagedIsAnError(t *testing.T) {
	c := newTestCluster(t, 2, ftcache.KindNVMe)
	staged, ds := smallDataset(4), smallDataset(8)
	if err := c.WarmCache(staged); err == nil || !strings.Contains(err.Error(), staged.FilePath(0)) {
		t.Errorf("warming an unstaged dataset: err = %v, want one naming %s", err, staged.FilePath(0))
	}
	c.Stage(staged)
	if err := c.WarmCache(ds); err == nil || !strings.Contains(err.Error(), ds.FilePath(4)) {
		t.Errorf("warming past the staged files: err = %v, want one naming %s", err, ds.FilePath(4))
	}
}

// TestStoredSlicesAreNeverWritten guards the aliasing rule of DESIGN
// §8.2. After WarmCache the PFS, NVMe and the RAM tier share one backing
// array per file, so the rule "a stored slice is never written and never
// recycled" is what keeps every tier's bytes right. Zipf reads, a
// quarter of them range reads, drive promotions, demotions, refused
// fills and evictions through bounded tiers, and puts of other bytes
// over staged paths ride along; at the end every PFS object must still
// be the staged content.
func TestStoredSlicesAreNeverWritten(t *testing.T) {
	const files, reads, fileBytes = 512, 6000, 4096
	c, err := NewCluster(ClusterConfig{
		Nodes: 4, Strategy: ftcache.KindNVMe, VirtualNodes: 100,
		NVMeCapacity: 192 << 10, RAMCapacity: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds := workload.Dataset{Name: "alias", Prefix: "alias/train", NumFiles: files, FileBytes: fileBytes}
	if _, err := c.Stage(ds); err != nil {
		t.Fatal(err)
	}
	if err := c.WarmCache(ds); err != nil {
		t.Fatal(err)
	}
	cli, _, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	z := workload.NewZipf(1.1, files, 1)
	rng := rand.New(rand.NewSource(1))
	overwritten := map[int]bool{}
	for n := 0; n < reads; n++ {
		i := z.Next()
		if n%97 == 0 {
			body := bytes.Repeat([]byte{byte(n)}, fileBytes)
			if err := cli.PutAsync(ds.FilePath(i), body); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			overwritten[i] = true
			continue
		}
		off, length := int64(0), int64(fileBytes)
		if n%4 == 0 {
			off = rng.Int63n(fileBytes)
			length = 1 + rng.Int63n(fileBytes-off)
		}
		got, err := cli.ReadRange(ctx, ds.FilePath(i), off, length)
		if err != nil {
			t.Fatalf("read %d [%d, +%d): %v", i, off, length, err)
		}
		if !overwritten[i] && !bytes.Equal(got, ds.SampleContent(i)[off:off+length]) {
			t.Fatalf("read %d [%d, +%d): wrong bytes", i, off, length)
		}
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	c.FlushMovers()

	var promoted, demoted, refused, evicted int64
	for _, n := range c.Nodes() {
		_, _, admits, _, demotions, _ := c.Server(n).RAM().Counters()
		snap := c.Server(n).NVMe().Snapshot()
		promoted, demoted = promoted+admits, demoted+demotions
		refused, evicted = refused+snap.Refused, evicted+snap.Evictions
	}
	t.Logf("promotions %d, demotions %d, refused fills %d, NVMe evictions %d, puts %d",
		promoted, demoted, refused, evicted, len(overwritten))
	if promoted == 0 || demoted == 0 || refused == 0 || evicted == 0 {
		t.Fatal("degenerate run: every tier transition must happen at least once")
	}
	for i := 0; i < files; i++ {
		got, ok := c.PFS().Peek(ds.FilePath(i))
		if !ok || !bytes.Equal(got, ds.SampleContent(i)) {
			t.Fatalf("PFS object %s changed (resident %v)", ds.FilePath(i), ok)
		}
	}
}

// BenchmarkStageWarm times the two set-up phases a staged bench
// workload pays before its first read, on epoch_uniform's shape (8
// nodes, 16,384 × 4 KiB, unbounded NVMe): Stage into a fresh cluster's
// PFS, and WarmCache of a freshly staged one. Boot, staging for the warm
// and teardown run with the timer stopped.
func BenchmarkStageWarm(b *testing.B) {
	ds := workload.Dataset{Name: "bench", Prefix: "bench", NumFiles: 16384, FileBytes: 4096}
	boot := func(b *testing.B, stage bool) *Cluster {
		c, err := NewCluster(ClusterConfig{Nodes: 8, Strategy: ftcache.KindNVMe, VirtualNodes: 100})
		if err != nil {
			b.Fatal(err)
		}
		if stage {
			if _, err := c.Stage(ds); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	phases := []struct {
		name   string
		staged bool
		run    func(*Cluster) error
	}{
		{"Stage", false, func(c *Cluster) error { _, err := c.Stage(ds); return err }},
		{"WarmCache", true, func(c *Cluster) error { return c.WarmCache(ds) }},
	}
	for _, p := range phases {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := boot(b, p.staged)
				b.StartTimer()
				if err := p.run(c); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Close()
				b.StartTimer()
			}
		})
	}
}
