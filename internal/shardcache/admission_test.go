package shardcache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/shardcache"
	"repro/internal/workload"
)

// The admission rule under the two traffic shapes it is for, at both
// tiers' sketch grains: the RAM tier's (memtier) and NVMe's (storage).
var grains = []struct {
	name  string
	grain int64
}{{"ram", 64}, {"nvme", 512}}

const (
	policyObjects = 1024
	policyBody    = 4096
)

func policyPath(i int) string { return fmt.Sprintf("data/f%06d", i) }

// read is one server-side read of key i, a miss offering the object;
// it reports a hit.
func read(c *shardcache.Cache, body []byte, i int) bool {
	path := policyPath(i)
	if _, ok := c.Get(path); ok {
		return true
	}
	c.Offer(path, body)
	return false
}

// zipfFilled returns a cache after a seeded Zipf 1.1 run over a key
// space 8x its capacity, and the share of those reads it served.
func zipfFilled(grain int64) (c *shardcache.Cache, body []byte, served float64) {
	c = shardcache.New(policyObjects*policyBody, 0, grain, nil)
	body = make([]byte, policyBody)
	z := workload.NewZipf(1.1, 8*policyObjects, 1)
	const reads = 200 * policyObjects
	hits := 0
	for n := 0; n < reads; n++ {
		if read(c, body, z.Next()) {
			hits++
		}
	}
	return c, body, float64(hits) / reads
}

// TestBudgetFillUnderZipf: under skew the cache spends its whole budget
// and spends it on the head of the distribution.
func TestBudgetFillUnderZipf(t *testing.T) {
	for _, g := range grains {
		t.Run(g.name, func(t *testing.T) {
			c, _, served := zipfFilled(g.grain)
			s := c.Snapshot()
			if occupancy := float64(s.Bytes) / float64(s.Capacity); occupancy < 0.95 {
				t.Errorf("occupancy %.3f of the budget, want >= 0.95", occupancy)
			}
			if served < 0.75 {
				t.Errorf("served %.3f of the reads, want >= 0.75", served)
			}
			t.Logf("served %.3f, refused %d", served, s.Refused)
		})
	}
}

// TestScanResistance: uniform passes over a dataset 16x the cache — the
// paper's epoch traffic — must leave the resident set where skew put it,
// not turn every read into an insert and an eviction.
func TestScanResistance(t *testing.T) {
	for _, g := range grains {
		t.Run(g.name, func(t *testing.T) {
			c, body, _ := zipfFilled(g.grain)
			before := c.Snapshot()
			rng := rand.New(rand.NewSource(1))
			for pass := 0; pass < 3; pass++ {
				for _, i := range rng.Perm(16 * policyObjects) {
					read(c, body, i)
				}
			}
			evicted := c.Snapshot().Evictions - before.Evictions
			if float64(evicted) > 0.02*float64(before.Objects) {
				t.Errorf("three uniform passes evicted %d of %d residents, want <= 2%%", evicted, before.Objects)
			} else {
				t.Logf("three uniform passes evicted %d of %d residents", evicted, before.Objects)
			}
			for i := 0; i < 16; i++ {
				if !c.Has(policyPath(i)) {
					t.Errorf("top-16 key %d lost its residency to the scan", i)
				}
			}
		})
	}
}
