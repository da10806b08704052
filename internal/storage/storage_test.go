package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNVMePutGet(t *testing.T) {
	n := NewNVMe(0)
	if err := n.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get("a")
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if !n.Has("a") || n.Has("b") {
		t.Error("Has mismatch")
	}
	if _, err := n.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing Get err = %v", err)
	}
	objs, used := n.Stats()
	if objs != 1 || used != 5 {
		t.Errorf("stats = %d, %d", objs, used)
	}
}

func TestNVMeReplaceAccountsBytes(t *testing.T) {
	n := NewNVMe(0)
	n.Put("a", make([]byte, 100))
	n.Put("a", make([]byte, 40))
	objs, used := n.Stats()
	if objs != 1 || used != 40 {
		t.Errorf("stats after replace = %d, %d", objs, used)
	}
}

func TestNVMeDelete(t *testing.T) {
	n := NewNVMe(0)
	n.Put("a", make([]byte, 10))
	n.Delete("a")
	n.Delete("a") // idempotent
	if objs, used := n.Stats(); objs != 0 || used != 0 {
		t.Errorf("stats after delete = %d, %d", objs, used)
	}
}

func TestNVMeLRUEviction(t *testing.T) {
	// One shard: exact global LRU order, so the victim is deterministic.
	n := NewNVMeShards(100, 1)
	n.Put("a", make([]byte, 40))
	n.Put("b", make([]byte, 40))
	// Touch "a" so "b" is the LRU victim.
	n.Get("a")
	n.Put("c", make([]byte, 40)) // exceeds 100 → evict b
	if !n.Has("a") || n.Has("b") || !n.Has("c") {
		t.Errorf("eviction picked wrong victim: a=%v b=%v c=%v", n.Has("a"), n.Has("b"), n.Has("c"))
	}
	if _, _, ev := n.Counters(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if _, used := n.Stats(); used > 100 {
		t.Errorf("used %d exceeds capacity", used)
	}
}

// Peek and Size are pure lookups: unlike Get they leave the LRU order
// and the hit/miss counters alone.
func TestNVMePeekAndSizeArePure(t *testing.T) {
	n := NewNVMeShards(100, 1)
	n.Put("a", make([]byte, 40))
	n.Put("b", make([]byte, 40))
	if data, ok := n.Peek("a"); !ok || len(data) != 40 {
		t.Fatalf("Peek(a) = %d bytes, %v", len(data), ok)
	}
	if size, ok := n.Size("a"); !ok || size != 40 {
		t.Fatalf("Size(a) = %d, %v", size, ok)
	}
	if _, ok := n.Peek("missing"); ok {
		t.Error("Peek found a missing path")
	}
	if _, ok := n.Size("missing"); ok {
		t.Error("Size found a missing path")
	}
	if hits, misses, _ := n.Counters(); hits != 0 || misses != 0 {
		t.Errorf("Peek/Size counted hits=%d misses=%d", hits, misses)
	}
	n.Put("c", make([]byte, 40)) // "a" was only peeked at, so it is still the LRU victim
	if n.Has("a") || !n.Has("b") || !n.Has("c") {
		t.Errorf("Peek/Size refreshed recency: a=%v b=%v c=%v", n.Has("a"), n.Has("b"), n.Has("c"))
	}
}

func TestNVMeTooLarge(t *testing.T) {
	n := NewNVMe(10)
	if err := n.Put("a", make([]byte, 11)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestNVMeHitMissCounters(t *testing.T) {
	n := NewNVMe(0)
	n.Put("a", []byte("x"))
	n.Get("a")
	n.Get("a")
	n.Get("missing")
	hits, misses, _ := n.Counters()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestNVMeClear(t *testing.T) {
	n := NewNVMe(0)
	for i := 0; i < 10; i++ {
		n.Put(fmt.Sprintf("f%d", i), make([]byte, 8))
	}
	n.Clear()
	if objs, used := n.Stats(); objs != 0 || used != 0 {
		t.Errorf("after clear: %d objs %d bytes", objs, used)
	}
	// Store must remain usable.
	n.Put("again", []byte("y"))
	if !n.Has("again") {
		t.Error("store broken after Clear")
	}
}

func TestNVMeCapacityInvariantQuick(t *testing.T) {
	// Property: used never exceeds capacity regardless of op sequence.
	f := func(ops []uint16) bool {
		n := NewNVMe(1000)
		for _, op := range ops {
			path := fmt.Sprintf("f%d", op%50)
			switch op % 3 {
			case 0:
				n.Put(path, make([]byte, int(op%400)))
			case 1:
				n.Get(path)
			case 2:
				n.Delete(path)
			}
			if _, used := n.Stats(); used > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNVMeConcurrent(t *testing.T) {
	n := NewNVMe(10000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := fmt.Sprintf("g%d-f%d", g, i%20)
				n.Put(p, make([]byte, 64))
				n.Get(p)
				if i%7 == 0 {
					n.Delete(p)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, used := n.Stats(); used > 10000 {
		t.Errorf("capacity exceeded under concurrency: %d", used)
	}
}

func TestPFSBasics(t *testing.T) {
	p := NewPFS()
	p.Put("d/a", []byte("data-a"))
	got, err := p.Get("d/a")
	if err != nil || string(got) != "data-a" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := p.Get("d/x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if !p.Has("d/a") || p.Has("d/x") {
		t.Error("Has mismatch")
	}
	p.Put("d/a", []byte("xy"))
	if objs, b := p.Stats(); objs != 1 || b != 2 {
		t.Errorf("stats = %d, %d", objs, b)
	}
	p.Delete("d/a")
	if objs, b := p.Stats(); objs != 0 || b != 0 {
		t.Errorf("stats after delete = %d, %d", objs, b)
	}
}

func TestPFSCounters(t *testing.T) {
	p := NewPFS()
	p.Put("a", make([]byte, 10))
	p.Get("a")
	p.Get("a")
	p.Get("missing") // metadata op but no read
	p.Has("a")       // metadata op only
	reads, rb, meta := p.Counters()
	if reads != 2 || rb != 20 {
		t.Errorf("reads=%d bytes=%d", reads, rb)
	}
	if meta != 4 {
		t.Errorf("metadataOps=%d, want 4", meta)
	}
}

// Size is a metadata op: no data read is counted and the injected read
// delay does not apply. Paths lists what was staged.
func TestPFSSizeAndPaths(t *testing.T) {
	p := NewPFS()
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		path := fmt.Sprintf("d/f%03d", i)
		p.Put(path, make([]byte, i))
		want[path] = true
	}
	p.SetReadDelay(time.Second)
	start := time.Now()
	if size, ok := p.Size("d/f007"); !ok || size != 7 {
		t.Errorf("Size = %d, %v", size, ok)
	}
	if _, ok := p.Size("d/missing"); ok {
		t.Error("Size found a missing path")
	}
	got := p.Paths()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Size and Paths took %v: they paid the read delay", d)
	}
	if reads, rb, meta := p.Counters(); reads != 0 || rb != 0 || meta != 3 {
		t.Errorf("reads=%d bytes=%d metadataOps=%d, want 0, 0, 3", reads, rb, meta)
	}
	if len(got) != len(want) {
		t.Fatalf("Paths listed %d of %d", len(got), len(want))
	}
	for _, path := range got {
		if !want[path] {
			t.Errorf("Paths listed %q, never staged", path)
		}
		delete(want, path)
	}
}

func TestNVMeModelTimes(t *testing.T) {
	m := FrontierNVMe()
	rt := m.ReadTime(8 * GiB)
	if rt < time.Second || rt > 1100*time.Millisecond {
		t.Errorf("8 GiB read at 8 GiB/s = %v, want ~1s", rt)
	}
	wt := m.WriteTime(4 * GiB)
	if wt < time.Second || wt > 1100*time.Millisecond {
		t.Errorf("4 GiB write at 4 GiB/s = %v, want ~1s", wt)
	}
	if m.ReadTime(0) != m.AccessLatency {
		t.Error("zero-byte read should cost only latency")
	}
}

func TestPFSModelContention(t *testing.T) {
	m := FrontierOrion()
	alone := m.readTime(64*MiB, 1)
	crowded := m.readTime(64*MiB, 1024)
	if crowded <= alone {
		t.Errorf("contended read (%v) should exceed solo read (%v)", crowded, alone)
	}
	// At 1024 readers each gets ~220/1024 GiB/s ≈ 0.215 GiB/s; a 64 MiB
	// read takes ≈ 0.29 s plus metadata.
	if crowded < 200*time.Millisecond || crowded > 2*time.Second {
		t.Errorf("contended read = %v, out of plausible range", crowded)
	}
}

func TestPFSModelPerClientCap(t *testing.T) {
	m := PFSModel{AggregateBandwidth: 100 * GiB, PerClientCap: 1 * GiB, MetadataParallelism: 1}
	// A single client must be capped at 1 GiB/s even though the aggregate
	// would allow 100 GiB/s.
	rt := m.readTime(1*GiB, 1)
	if rt < 900*time.Millisecond {
		t.Errorf("per-client cap not applied: %v", rt)
	}
}

func TestPFSMetadataQueueing(t *testing.T) {
	m := PFSModel{MetadataOpTime: time.Millisecond, MetadataParallelism: 4}
	if got := m.MetadataTime(1); got != time.Millisecond {
		t.Errorf("solo metadata = %v", got)
	}
	if got := m.MetadataTime(8); got != 2*time.Millisecond {
		t.Errorf("8 clients over 4-wide MDS = %v, want 2ms", got)
	}
	if got := m.MetadataTime(0); got != time.Millisecond {
		t.Errorf("clamped concurrency = %v", got)
	}
}

func TestModelMonotonicity(t *testing.T) {
	m := FrontierOrion()
	prev := time.Duration(0)
	for _, c := range []int{1, 2, 8, 64, 512, 1024} {
		rt := m.readTime(2*MiB, c)
		if rt < prev {
			t.Errorf("ReadTime not monotonic in concurrency at %d: %v < %v", c, rt, prev)
		}
		prev = rt
	}
	prevB := time.Duration(0)
	for _, b := range []int64{0, 1 << 10, MiB, 16 * MiB, GiB} {
		rt := m.readTime(b, 16)
		if rt < prevB {
			t.Errorf("ReadTime not monotonic in size at %d", b)
		}
		prevB = rt
	}
}

func BenchmarkNVMePutGet(b *testing.B) {
	n := NewNVMe(1 << 30)
	data := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := fmt.Sprintf("f%d", i%1000)
		n.Put(p, data)
		n.Get(p)
	}
}

// TestNVMeBatchSpillEvictionRace drives concurrent PutBatch calls into
// a store whose budget forces constant cross-shard spill and eviction:
// batches large relative to capacity mean every insert has to displace,
// usually across shards, while other batches and single puts race it.
// Under -race this exercises the lock-ordering and accounting paths;
// the assertions pin the invariants — the global byte budget is never
// overshot, per-shard atomic mirrors reconcile with the locked maps, and
// every surviving object reads back intact.
func TestNVMeBatchSpillEvictionRace(t *testing.T) {
	const (
		capacity   = 4096
		goroutines = 8
		rounds     = 60
		batchSize  = 12
		objBytes   = 96 // goroutines*batchSize*objBytes >> capacity
	)
	n := NewNVMeShards(capacity, 8)
	content := func(g, r, k int) []byte {
		b := make([]byte, objBytes)
		for i := range b {
			b[i] = byte(g*31 + r*7 + k)
		}
		return b
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				entries := make([]BatchEntry, batchSize)
				for k := range entries {
					// Shared key space across goroutines: replacements
					// and same-key races are part of the workload.
					entries[k] = BatchEntry{
						Path: fmt.Sprintf("batch/f%03d", (g*rounds+r*batchSize+k)%200),
						Data: content(g, r, k),
					}
				}
				for _, err := range n.PutBatch(entries) {
					if err != nil {
						t.Errorf("PutBatch: %v", err)
						return
					}
				}
				// Interleave the non-batch mutators so single-key evict
				// and delete race the batch machinery.
				solo := fmt.Sprintf("solo/g%d-r%d", g, r)
				if err := n.Put(solo, content(g, r, 255)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				n.Get(fmt.Sprintf("batch/f%03d", r%200))
				if r%5 == 0 {
					n.Delete(solo)
				}
				if _, used := n.Stats(); used > capacity {
					t.Errorf("budget overshot mid-race: used=%d > capacity=%d", used, capacity)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The churn usually spills, but whether any single insert exhausts
	// its own shard is scheduling-dependent. Force one deterministic
	// cross-shard spill: top the store up to its budget, then aim a
	// batch at the *smallest* shard that is bigger than that shard plus
	// the free headroom combined — local eviction cannot cover it, so
	// the insert must evict from sibling shards.
	for i := 0; ; i++ {
		if _, used := n.Stats(); used > capacity-objBytes {
			break
		}
		if err := n.Put(fmt.Sprintf("fill/%d", i), content(9, i, 0)); err != nil {
			t.Fatalf("top-up Put: %v", err)
		}
	}
	target := 0
	for i, b := range n.ShardBytes() {
		if b < n.ShardBytes()[target] {
			target = i
		}
	}
	// Shard placement is a deterministic hash, so probing a scratch
	// store with the same shard count reveals where a key will land.
	probe := NewNVMeShards(1<<20, 8)
	shardOf := func(path string) int {
		if err := probe.Put(path, []byte("x")); err != nil {
			t.Fatalf("probe Put: %v", err)
		}
		defer probe.Delete(path)
		for i, b := range probe.ShardBytes() {
			if b > 0 {
				return i
			}
		}
		return -1
	}
	var spillBatch []BatchEntry
	for i := 0; len(spillBatch) < (capacity-2*objBytes)/objBytes; i++ {
		key := fmt.Sprintf("spill/k%d", i)
		if shardOf(key) == target {
			spillBatch = append(spillBatch, BatchEntry{Path: key, Data: content(11, i, 0)})
		}
	}
	spillsBefore := n.Spills()
	for _, err := range n.PutBatch(spillBatch) {
		if err != nil {
			t.Fatalf("forced-spill PutBatch: %v", err)
		}
	}
	if n.Spills() == spillsBefore {
		t.Errorf("single-shard batch of %d B into the smallest shard did not spill cross-shard", len(spillBatch)*objBytes)
	}

	// Quiescent reconciliation: locked Stats, atomic mirrors, and the
	// per-shard byte vector must all agree.
	objs, used := n.Stats()
	aObjs, aUsed := n.StatsAtomic()
	if int64(objs) != aObjs || used != aUsed {
		t.Errorf("accounting diverged: Stats=(%d,%d) StatsAtomic=(%d,%d)", objs, used, aObjs, aUsed)
	}
	var shardSum int64
	for _, b := range n.ShardBytes() {
		shardSum += b
	}
	if shardSum != used {
		t.Errorf("shard byte vector sums to %d, Stats says %d", shardSum, used)
	}
	if used > capacity {
		t.Errorf("budget overshot at quiescence: used=%d > capacity=%d", used, capacity)
	}
	// Every survivor must read back with the uniform fill byte its
	// writer stamped (a mixed buffer means eviction freed live bytes).
	for _, path := range n.Paths() {
		data, err := n.Get(path)
		if err != nil {
			t.Fatalf("resident path %s unreadable at quiescence: %v", path, err)
		}
		for i := 1; i < len(data); i++ {
			if data[i] != data[0] {
				t.Fatalf("torn object %s: byte %d is %#x, want %#x", path, i, data[i], data[0])
			}
		}
	}
}
