package memtier

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/shardcache"
	"repro/internal/workload"
)

func get(t *testing.T, tier *Tier, path string) []byte {
	t.Helper()
	lease, ok := tier.Get(path)
	if !ok {
		t.Fatalf("Get(%q): not resident", path)
	}
	defer lease.Release()
	return append([]byte(nil), lease.Bytes()...)
}

func stats(tier *Tier) (objects, bytes int64) {
	s := tier.Snapshot()
	return s.Objects, s.Bytes
}

// touch reads path n times, as n client reads would: each Get counts
// toward path's admission frequency whether or not it is resident.
func touch(tier *Tier, path string, n int) {
	for i := 0; i < n; i++ {
		if lease, ok := tier.Get(path); ok {
			lease.Release()
		}
	}
}

func TestAdmitGetRoundtrip(t *testing.T) {
	tier := New(1<<20, nil)
	if !tier.Admit("a", []byte("alpha")) {
		t.Fatal("Admit refused under budget")
	}
	if got := get(t, tier, "a"); string(got) != "alpha" {
		t.Fatalf("got %q, want alpha", got)
	}
	if _, ok := tier.Get("missing"); ok {
		t.Fatal("Get on absent path reported resident")
	}
	hits, misses, admits, _, _, _ := tier.Counters()
	if hits != 1 || misses != 1 || admits != 1 {
		t.Fatalf("counters hits=%d misses=%d admits=%d, want 1/1/1", hits, misses, admits)
	}
	if tier.ActiveLeases() != 0 {
		t.Fatalf("active leases %d after release", tier.ActiveLeases())
	}
}

func TestAdmitReplacesBytes(t *testing.T) {
	tier := New(1<<20, nil)
	tier.Admit("a", []byte("old"))
	tier.Admit("a", []byte("newer"))
	if got := get(t, tier, "a"); string(got) != "newer" {
		t.Fatalf("got %q, want newer", got)
	}
	objects, bytes := stats(tier)
	if objects != 1 || bytes != 5 {
		t.Fatalf("stats objects=%d bytes=%d, want 1/5", objects, bytes)
	}
}

// A resident path offered again is decided before it is touched: a copy
// no bigger swaps in place whatever the read counts say, and a bigger
// one that loses under the rule leaves the resident where it was.
func TestReadmitKeepsResidentUntilDecided(t *testing.T) {
	tier := NewShards(20, 1, nil)
	tier.Admit("a", []byte("0123456789"))
	tier.Admit("b", []byte("bbbbbbbbbb"))
	touch(tier, "b", 4*admitMargin)
	if !tier.Admit("a", []byte("AAAAAAAAAA")) {
		t.Fatal("same-size re-admit into a full tier refused")
	}
	if tier.Admit("a", make([]byte, 15)) {
		t.Fatal("bigger re-admit displaced a hotter resident")
	}
	if got := get(t, tier, "a"); string(got) != "AAAAAAAAAA" {
		t.Fatalf("got %q, want AAAAAAAAAA", got)
	}
	objects, bytes := stats(tier)
	_, _, _, evictions, _, _ := tier.Counters()
	if objects != 2 || bytes != 20 || evictions != 0 || tier.Rejected() != 1 {
		t.Fatalf("objects=%d bytes=%d evictions=%d rejected=%d, want 2/20/0/1", objects, bytes, evictions, tier.Rejected())
	}
}

func TestCapacityRefusals(t *testing.T) {
	tier := New(10, nil)
	if tier.Admit("big", make([]byte, 11)) {
		t.Fatal("admitted object larger than tier")
	}
	disabled := New(0, nil)
	if disabled.Admit("a", []byte("x")) {
		t.Fatal("disabled tier admitted")
	}
	if _, ok := disabled.Get("a"); ok {
		t.Fatal("disabled tier reported residency")
	}
}

func TestLRUEvictionOrderSingleShard(t *testing.T) {
	var demoted []string
	tier := NewShards(30, 1, func(path string, data []byte) {
		demoted = append(demoted, path)
	})
	tier.Admit("a", make([]byte, 10))
	tier.Admit("b", make([]byte, 10))
	tier.Admit("c", make([]byte, 10))
	// Touch a so b is the LRU victim.
	touch(tier, "a", 1)
	// The tier is full: a candidate nobody has read is turned away...
	if tier.Admit("e", make([]byte, 10)) {
		t.Fatal("unread candidate displaced a resident of a full tier")
	}
	if got := tier.Rejected(); got != 1 {
		t.Fatalf("Rejected() = %d, want 1", got)
	}
	// ...and one read clearly more often than the victim takes its place.
	touch(tier, "d", admitMargin+1)
	if !tier.Admit("d", make([]byte, 10)) {
		t.Fatal("hotter candidate refused")
	}
	if tier.Has("b") {
		t.Fatal("b survived eviction")
	}
	for _, p := range []string{"a", "c", "d"} {
		if !tier.Has(p) {
			t.Fatalf("%s missing", p)
		}
	}
	if len(demoted) != 1 || demoted[0] != "b" {
		t.Fatalf("demotions %v, want [b]", demoted)
	}
	_, _, _, evictions, demotions, _ := tier.Counters()
	if evictions != 1 || demotions != 1 {
		t.Fatalf("evictions=%d demotions=%d, want 1/1", evictions, demotions)
	}
}

func TestCrossShardSpill(t *testing.T) {
	// Budget for exactly one object: every admit must find its victim
	// on *another* shard (its own is empty), without overshooting.
	tier := NewShards(10, 8, nil)
	seen := map[uint64]bool{}
	admitted := 0
	for i := 0; admitted < 3; i++ {
		path := fmt.Sprintf("f%04d", i)
		sh := shardcache.Hash(path) & 7
		if seen[sh] {
			continue // one candidate per shard, so counts never mix
		}
		seen[sh] = true
		// Each candidate is read admitMargin+1 times more than the
		// resident it has to displace.
		touch(tier, path, admitted*(admitMargin+1))
		if !tier.Admit(path, make([]byte, 10)) {
			t.Fatalf("admit %d (%s) refused", admitted, path)
		}
		admitted++
		if objects, bytes := stats(tier); objects != 1 || bytes != 10 {
			t.Fatalf("after admit %d: objects=%d bytes=%d, want 1/10", admitted, objects, bytes)
		}
		if !tier.Has(path) {
			t.Fatalf("%s not resident after its admit", path)
		}
	}
}

func TestLeaseOutlivesEviction(t *testing.T) {
	tier := NewShards(10, 1, nil)
	tier.Admit("a", []byte("0123456789"))
	lease, ok := tier.Get("a")
	if !ok {
		t.Fatal("a not resident")
	}
	// Evict a while the lease is live, then turn the slot over again:
	// the lease pins a's own slice, whatever the tier does next.
	touch(tier, "b", 2*admitMargin)
	tier.Admit("b", []byte("bbbbbbbbbb"))
	if tier.Has("a") {
		t.Fatal("a survived eviction")
	}
	touch(tier, "c", 4*admitMargin)
	tier.Admit("c", []byte("cccccccccc"))
	if !tier.Has("c") {
		t.Fatal("c not admitted")
	}
	if got := string(lease.Bytes()); got != "0123456789" {
		t.Fatalf("leased bytes corrupted after eviction: %q", got)
	}
	lease.Release()
	if tier.ActiveLeases() != 0 {
		t.Fatalf("active leases %d", tier.ActiveLeases())
	}
}

func TestLeaseOutlivesInvalidate(t *testing.T) {
	tier := New(1<<20, nil)
	tier.Admit("a", []byte("payload"))
	lease, _ := tier.Get("a")
	if !tier.Invalidate("a") {
		t.Fatal("Invalidate missed resident path")
	}
	if tier.Invalidate("a") {
		t.Fatal("double Invalidate reported resident")
	}
	if got := string(lease.Bytes()); got != "payload" {
		t.Fatalf("leased bytes corrupted after invalidate: %q", got)
	}
	lease.Release()
	_, _, _, _, demotions, invalidations := tier.Counters()
	if demotions != 0 || invalidations != 1 {
		t.Fatalf("demotions=%d invalidations=%d, want 0/1", demotions, invalidations)
	}
}

func TestInvalidateDoesNotDemote(t *testing.T) {
	demoted := 0
	tier := New(1<<20, func(string, []byte) { demoted++ })
	tier.Admit("a", []byte("x"))
	tier.Invalidate("a")
	tier.Admit("b", []byte("y"))
	tier.Clear()
	if demoted != 0 {
		t.Fatalf("invalidate/clear ran the demotion hook %d times", demoted)
	}
}

func TestClear(t *testing.T) {
	tier := New(1<<20, nil)
	for i := 0; i < 100; i++ {
		tier.Admit(fmt.Sprintf("f%d", i), make([]byte, 100))
	}
	lease, _ := tier.Get("f0")
	tier.Clear()
	objects, bytes := stats(tier)
	if objects != 0 || bytes != 0 {
		t.Fatalf("stats after Clear: objects=%d bytes=%d", objects, bytes)
	}
	if len(lease.Bytes()) != 100 {
		t.Fatal("lease invalidated by Clear")
	}
	lease.Release()
}

func TestDoubleReleaseIsNoOp(t *testing.T) {
	tier := New(1<<20, nil)
	tier.Admit("a", []byte("x"))
	lease, _ := tier.Get("a")
	lease.Release()
	lease.Release()
	if tier.ActiveLeases() != 0 {
		t.Fatalf("active leases %d after double release", tier.ActiveLeases())
	}
	// The buffer must still be resident and intact.
	if got := get(t, tier, "a"); string(got) != "x" {
		t.Fatalf("resident bytes corrupted: %q", got)
	}
}

// TestConcurrentChurn hammers admit/get/invalidate/clear from many
// goroutines under -race, checking that leased bytes always match the
// content their path implies (each path's bytes are a function of its
// name, so a recycled buffer serving the wrong object is detected).
func TestConcurrentChurn(t *testing.T) {
	// Budget for a quarter of the keys, drawn with a skew, so admission
	// has rejections and evictions to race with, not only free inserts.
	const budget = 16 * 128
	tier := NewShards(budget, 4, nil)
	content := func(i int) []byte {
		b := make([]byte, 128)
		for j := range b {
			b[j] = byte(i)
		}
		return b
	}
	const keys = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 2000; n++ {
				i := min(rng.Intn(keys), rng.Intn(keys))
				path := fmt.Sprintf("f%04d", i)
				switch rng.Intn(10) {
				case 0:
					tier.Invalidate(path)
				case 1, 2, 3:
					tier.Admit(path, content(i))
				default:
					if lease, ok := tier.Get(path); ok {
						b := lease.Bytes()
						if len(b) != 128 || b[0] != byte(i) || b[127] != byte(i) {
							t.Errorf("wrong bytes for %s: len=%d first=%d", path, len(b), b[0])
						}
						lease.Release()
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if tier.ActiveLeases() != 0 {
		t.Fatalf("leaked leases: %d", tier.ActiveLeases())
	}
	if _, bytes := stats(tier); bytes > budget {
		t.Fatalf("budget overshoot: %d", bytes)
	}
	if _, _, _, evictions, _, _ := tier.Counters(); evictions == 0 || tier.Rejected() == 0 {
		t.Fatalf("churn never exercised the admission rule: evictions=%d rejected=%d", evictions, tier.Rejected())
	}
}

// The admission-policy tests drive a tier the way the server does — Get,
// and on a miss offer the object — with 4 KiB objects (one shared body:
// residency is by reference) and a budget of policyObjects of them.
const (
	policyObjects = 1024
	policyBody    = 4096
)

func policyPath(i int) string { return fmt.Sprintf("data/f%06d", i) }

// read is one server-side read of key i; it reports a RAM hit.
func read(tier *Tier, body []byte, i int) bool {
	path := policyPath(i)
	if lease, ok := tier.Get(path); ok {
		lease.Release()
		return true
	}
	tier.Admit(path, body)
	return false
}

// zipfFilled returns a tier after a seeded Zipf 1.1 run over a key space
// 8x its capacity, and the share of those reads it served.
func zipfFilled() (tier *Tier, body []byte, served float64) {
	tier = New(policyObjects*policyBody, nil)
	body = make([]byte, policyBody)
	z := workload.NewZipf(1.1, 8*policyObjects, 1)
	const reads = 200 * policyObjects
	hits := 0
	for n := 0; n < reads; n++ {
		if read(tier, body, z.Next()) {
			hits++
		}
	}
	return tier, body, float64(hits) / reads
}

// TestBudgetFillUnderZipf: under skew the tier spends its whole budget
// and spends it on the head of the distribution.
func TestBudgetFillUnderZipf(t *testing.T) {
	tier, _, served := zipfFilled()
	_, bytes := stats(tier)
	if occupancy := float64(bytes) / float64(tier.Snapshot().Capacity); occupancy < 0.95 {
		t.Errorf("occupancy %.3f of the budget, want >= 0.95", occupancy)
	}
	if served < 0.75 {
		t.Errorf("RAM served %.3f of the reads, want >= 0.75", served)
	}
	t.Logf("served %.3f, rejected %d", served, tier.Rejected())
}

// TestScanResistance: uniform passes over a dataset 16x the tier — the
// paper's epoch traffic — must leave the resident set where skew put it,
// not turn every read into an insert, an eviction and a demotion.
func TestScanResistance(t *testing.T) {
	tier, body, _ := zipfFilled()
	residents, _ := stats(tier)
	_, _, _, before, _, _ := tier.Counters()
	rng := rand.New(rand.NewSource(1))
	for pass := 0; pass < 3; pass++ {
		for _, i := range rng.Perm(16 * policyObjects) {
			read(tier, body, i)
		}
	}
	_, _, _, after, _, _ := tier.Counters()
	if evicted := after - before; float64(evicted) > 0.02*float64(residents) {
		t.Errorf("three uniform passes evicted %d of %d residents, want <= 2%%", evicted, residents)
	} else {
		t.Logf("three uniform passes evicted %d of %d residents", evicted, residents)
	}
	for i := 0; i < 16; i++ {
		if !tier.Has(policyPath(i)) {
			t.Errorf("top-16 key %d lost its residency to the scan", i)
		}
	}
}

// TestTierAllocs pins the tier's allocations per operation at the layer
// ledger's figures (bench: memtier.*_allocs): a hit allocates its lease
// and nothing else, and a full tier turns a candidate away without
// allocating at all.
func TestTierAllocs(t *testing.T) {
	tier, body, _ := zipfFilled()
	hottest := policyPath(0)
	if !tier.Has(hottest) {
		t.Fatal("the head of the distribution is not resident")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if lease, ok := tier.Get(hottest); ok {
			lease.Release()
		}
	}); allocs > 1 {
		t.Errorf("Get + Release: %.1f allocations, ceiling 1", allocs)
	}
	before := tier.Rejected()
	if allocs := testing.AllocsPerRun(1000, func() {
		tier.Admit("data/never-read", body)
	}); allocs != 0 {
		t.Errorf("Admit refused by a full tier: %.1f allocations, want 0", allocs)
	}
	if refused := tier.Rejected() - before; refused != 1001 {
		t.Errorf("%d of 1001 unread candidates refused: the tier was not full", refused)
	}
}
