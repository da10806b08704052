// Package storage provides the two storage tiers of the FT-Cache stack:
//
//   - NVMe: the node-local cache device (Frontier: 2×1.9 TB PM9A3 in
//     RAID0, 3.5 TB usable) — here an in-memory object store with
//     capacity accounting and LRU eviction.
//   - PFS: the center-wide parallel file system (Lustre "Orion") — a
//     shared object store that additionally tracks access counts, the
//     key observable in the paper's experiments (each strategy is
//     distinguished by *how often it goes back to the PFS*).
//
// Both stores are sharded: object paths hash onto independent
// lock-protected shards so concurrent requests from many client
// goroutines contend only when they land on the same shard, not on one
// global mutex. The NVMe cache keeps a single global capacity budget
// (an atomic counter) across its shards, so the byte bound and the
// ErrTooLarge rule are identical to an unsharded cache; only the LRU
// victim order becomes per-shard-approximate when more than one shard is
// configured (shards=1 preserves exact global LRU for tests).
//
// Functional behaviour (what is stored where) is separated from
// performance behaviour: device *models* in device.go turn byte counts
// and concurrency into service times for the discrete-event simulator,
// so live tests run at memory speed while experiments reproduce
// Frontier-like timing.
package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xhash"
)

// Common store errors.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("storage: object not found")
	// ErrTooLarge reports an object bigger than the device capacity.
	ErrTooLarge = errors.New("storage: object exceeds device capacity")
)

// notFoundError carries the missing path without paying a fmt.Errorf
// allocation storm on every miss — the miss path is as hot as the hit
// path under a cold cache. errors.Is(err, ErrNotFound) still matches
// through Unwrap.
type notFoundError struct{ path string }

func (e *notFoundError) Error() string { return "storage: object not found: " + e.path }
func (e *notFoundError) Unwrap() error { return ErrNotFound }

// Store is the minimal object interface shared by both tiers.
type Store interface {
	// Put stores data under path, replacing any prior object.
	Put(path string, data []byte) error
	// Get returns the object at path or ErrNotFound. The returned slice
	// must not be modified by the caller.
	Get(path string) ([]byte, error)
	// Has reports whether path is present.
	Has(path string) bool
	// Size returns the byte size of the object at path without reading it:
	// a metadata lookup that touches neither recency nor read counters.
	Size(path string) (int64, bool)
	// Delete removes path if present; absent paths are a no-op.
	Delete(path string)
	// Stats returns object count and total bytes.
	Stats() (objects int, bytes int64)
}

// DefaultNVMeShards is the shard count NewNVMe uses: enough to spread a
// busy node's request goroutines (one per in-flight RPC) across
// independent locks without bloating the per-store footprint.
const DefaultNVMeShards = 16

// shardSeed decorrelates the shard-pick hash from the consistent-hash
// ring's key hash so ring placement does not concentrate a node's keys
// onto few shards.
const shardSeed = 0x9E3779B97F4A7C15

// NVMe is the node-local cache store: bounded capacity with LRU eviction
// on insert pressure (the cache holds a *replaceable copy* of PFS data,
// so evicting is always safe).
//
// Internally the key space is hashed across shards, each with its own
// mutex, map and LRU list. Capacity is a single global byte budget: an
// insert that pushes the total over capacity evicts least-recently-used
// objects from its own shard first, then spills to the other shards —
// taking one shard lock at a time, so there is no lock ordering to
// deadlock on.
type NVMe struct {
	capacity int64
	used     atomic.Int64
	shards   []nvmeShard
	mask     uint64

	evictions atomic.Int64
	spills    atomic.Int64 // evictions performed outside the inserting shard
	hits      atomic.Int64
	misses    atomic.Int64
}

type nvmeShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	// bytes/objects mirror the shard's content for lock-free telemetry
	// reads; they are written under mu but loaded without it.
	bytes   atomic.Int64
	objects atomic.Int64
	_       [40]byte // pad to a cache line so shard locks don't false-share
}

type nvmeEntry struct {
	path string
	data []byte
}

// NewNVMe creates a store with the given byte capacity and
// DefaultNVMeShards shards. capacity <= 0 means unbounded (useful in
// unit tests).
func NewNVMe(capacity int64) *NVMe {
	return NewNVMeShards(capacity, DefaultNVMeShards)
}

// NewNVMeShards creates a store with an explicit shard count (rounded up
// to a power of two; non-positive selects DefaultNVMeShards). shards=1
// gives the exact global LRU order of an unsharded cache, which the
// eviction-order tests rely on.
func NewNVMeShards(capacity int64, shards int) *NVMe {
	if shards <= 0 {
		shards = DefaultNVMeShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &NVMe{
		capacity: capacity,
		shards:   make([]nvmeShard, n),
		mask:     uint64(n - 1),
	}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*list.Element)
		s.shards[i].lru = list.New()
	}
	return s
}

func (n *NVMe) shardFor(path string) *nvmeShard {
	return &n.shards[xhash.XXH64String(path, shardSeed)&n.mask]
}

// Put implements Store, evicting least-recently-used objects as needed.
func (n *NVMe) Put(path string, data []byte) error {
	size := int64(len(data))
	if n.capacity > 0 && size > n.capacity {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, n.capacity)
	}
	sh := n.shardFor(path)
	sh.mu.Lock()
	kept := n.insertLocked(sh, path, data)
	if n.capacity > 0 {
		n.evictShardLocked(sh, kept)
	}
	sh.mu.Unlock()
	if n.capacity > 0 && n.used.Load() > n.capacity {
		n.evictSpill(sh, kept)
	}
	return nil
}

// insertLocked stores or replaces path in sh (whose lock the caller
// holds), maintaining the byte/object accounting, and returns the
// entry's LRU element.
func (n *NVMe) insertLocked(sh *nvmeShard, path string, data []byte) *list.Element {
	size := int64(len(data))
	if el, ok := sh.items[path]; ok {
		old := el.Value.(*nvmeEntry)
		n.used.Add(size - int64(len(old.data)))
		sh.bytes.Add(size - int64(len(old.data)))
		old.data = data
		sh.lru.MoveToFront(el)
		return el
	}
	el := sh.lru.PushFront(&nvmeEntry{path: path, data: data})
	sh.items[path] = el
	n.used.Add(size)
	sh.bytes.Add(size)
	sh.objects.Add(1)
	return el
}

// BatchEntry is one object of a PutBatch.
type BatchEntry struct {
	Path string
	Data []byte
}

// PutBatch stores a batch of objects, taking each destination shard's
// lock exactly once for all of that shard's entries — the server-side
// half of the batched ingest pipeline, where one decoded wire batch
// becomes one sharded insert pass instead of len(entries) lock
// round-trips. Returns one error slot per entry (nil on success); the
// only per-entry failure is ErrTooLarge.
//
// Eviction protects every member of the batch, not just the newest
// insert: evicting an object the same call just accepted would turn the
// batch ack into a lie, so pressure spills to older objects across all
// shards first. Only a pathological batch that cannot fit even in an
// otherwise-empty cache falls back to sequential-put semantics (newest
// insert protected, earlier batch-mates evictable). Occupancy may
// transiently overshoot capacity by at most the batch's byte size
// (bounded by the ingest batch limit) while the pass runs.
func (n *NVMe) PutBatch(entries []BatchEntry) []error {
	errs := make([]error, len(entries))
	if len(entries) == 0 {
		return errs
	}
	// Group entry indices by shard. The common batch is small (tens of
	// entries), so a per-shard slice map beats sorting.
	byShard := make(map[*nvmeShard][]int, 4)
	for i := range entries {
		size := int64(len(entries[i].Data))
		if n.capacity > 0 && size > n.capacity {
			errs[i] = fmt.Errorf("%w: %d > %d", ErrTooLarge, size, n.capacity)
			continue
		}
		sh := n.shardFor(entries[i].Path)
		byShard[sh] = append(byShard[sh], i)
	}
	protected := make(map[*nvmeShard]map[*list.Element]struct{}, len(byShard))
	var lastShard *nvmeShard
	var lastKept *list.Element
	for sh, idxs := range byShard {
		sh.mu.Lock()
		prot := make(map[*list.Element]struct{}, len(idxs))
		for _, i := range idxs {
			lastKept = n.insertLocked(sh, entries[i].Path, entries[i].Data)
			prot[lastKept] = struct{}{}
		}
		if n.capacity > 0 {
			n.evictShardLockedProtected(sh, prot)
		}
		sh.mu.Unlock()
		protected[sh] = prot
		lastShard = sh
	}
	if lastShard == nil || n.capacity <= 0 {
		return errs
	}
	// Spill pass: the batch's shards ran out of unprotected objects, so
	// walk every shard (batch members still protected) to meet the
	// budget.
	for i := range n.shards {
		if n.used.Load() <= n.capacity {
			return errs
		}
		sh := &n.shards[i]
		sh.mu.Lock()
		evicted := n.evictShardLockedProtected(sh, protected[sh])
		sh.mu.Unlock()
		if protected[sh] == nil {
			n.spills.Add(int64(evicted))
		}
	}
	if n.used.Load() > n.capacity {
		// The batch alone exceeds the cache: nothing unprotected is
		// left, so degrade to sequential-put semantics — only the very
		// newest insert is sacred.
		n.evictSpill(lastShard, lastKept)
	}
	return errs
}

// evictShardLockedProtected evicts LRU-order objects from sh (whose
// lock the caller holds) until the global budget is met, skipping any
// element in protected (nil = none). Returns the number evicted.
func (n *NVMe) evictShardLockedProtected(sh *nvmeShard, protected map[*list.Element]struct{}) int {
	evicted := 0
	for n.used.Load() > n.capacity {
		tail := sh.lru.Back()
		for tail != nil {
			if _, ok := protected[tail]; !ok {
				break
			}
			tail = tail.Prev()
		}
		if tail == nil {
			return evicted
		}
		ent := tail.Value.(*nvmeEntry)
		sh.lru.Remove(tail)
		delete(sh.items, ent.path)
		n.used.Add(-int64(len(ent.data)))
		sh.bytes.Add(-int64(len(ent.data)))
		sh.objects.Add(-1)
		n.evictions.Add(1)
		evicted++
	}
	return evicted
}

// evictShardLocked evicts LRU-order objects from sh (whose lock the
// caller holds) until the global budget is met or only keep remains,
// returning the number of objects evicted.
func (n *NVMe) evictShardLocked(sh *nvmeShard, keep *list.Element) int {
	evicted := 0
	for n.used.Load() > n.capacity {
		tail := sh.lru.Back()
		if tail != nil && tail == keep {
			// Never evict the object that was just inserted — the point
			// of the Put is for it to be cached; spill to other shards.
			tail = tail.Prev()
		}
		if tail == nil {
			return evicted
		}
		ent := tail.Value.(*nvmeEntry)
		sh.lru.Remove(tail)
		delete(sh.items, ent.path)
		n.used.Add(-int64(len(ent.data)))
		sh.bytes.Add(-int64(len(ent.data)))
		sh.objects.Add(-1)
		n.evictions.Add(1)
		evicted++
	}
	return evicted
}

// evictSpill walks the other shards (one lock at a time) evicting their
// LRU tails until the global budget is met. from is the shard whose
// insert overflowed; it is revisited last with its keep element still
// protected, so a full cycle can evict everything except the newest
// object — at which point used == len(new object) <= capacity.
func (n *NVMe) evictSpill(from *nvmeShard, keep *list.Element) {
	start := 0
	for i := range n.shards {
		if &n.shards[i] == from {
			start = i
			break
		}
	}
	for off := 1; off <= len(n.shards); off++ {
		if n.used.Load() <= n.capacity {
			return
		}
		sh := &n.shards[(start+off)&int(n.mask)]
		k := keep
		if sh != from {
			k = nil
		}
		sh.mu.Lock()
		evicted := n.evictShardLocked(sh, k)
		sh.mu.Unlock()
		if sh != from {
			n.spills.Add(int64(evicted))
		}
	}
}

// Get implements Store and refreshes recency on hit.
//
//ftc:hotpath
func (n *NVMe) Get(path string) ([]byte, error) {
	sh := n.shardFor(path)
	sh.mu.Lock() //ftclint:ignore hotpathlock per-shard LRU lock is the sharded design; contention is 1/N by construction
	el, ok := sh.items[path]
	if !ok {
		sh.mu.Unlock()
		n.misses.Add(1)
		return nil, &notFoundError{path}
	}
	sh.lru.MoveToFront(el)
	data := el.Value.(*nvmeEntry).data
	sh.mu.Unlock()
	n.hits.Add(1)
	return data, nil
}

// Has implements Store without perturbing recency or hit counters.
func (n *NVMe) Has(path string) bool {
	sh := n.shardFor(path)
	sh.mu.Lock()
	_, ok := sh.items[path]
	sh.mu.Unlock()
	return ok
}

// Peek returns the object at path like Get, but as a pure lookup: it
// neither refreshes recency nor counts a hit or miss. The miss flight
// uses it to re-check residency once it holds the flight, and Size
// answers metadata ops with it.
func (n *NVMe) Peek(path string) ([]byte, bool) {
	sh := n.shardFor(path)
	sh.mu.Lock()
	el, ok := sh.items[path]
	var data []byte
	if ok {
		data = el.Value.(*nvmeEntry).data
	}
	sh.mu.Unlock()
	return data, ok
}

// Size implements Store.
func (n *NVMe) Size(path string) (int64, bool) {
	data, ok := n.Peek(path)
	return int64(len(data)), ok
}

// Delete implements Store.
func (n *NVMe) Delete(path string) {
	sh := n.shardFor(path)
	sh.mu.Lock()
	if el, ok := sh.items[path]; ok {
		size := int64(len(el.Value.(*nvmeEntry).data))
		n.used.Add(-size)
		sh.bytes.Add(-size)
		sh.objects.Add(-1)
		sh.lru.Remove(el)
		delete(sh.items, path)
	}
	sh.mu.Unlock()
}

// Stats implements Store.
// Paths returns every resident path (unordered). Diagnostic use only —
// it takes each shard lock in turn, so the snapshot is per-shard
// consistent, not globally atomic.
func (n *NVMe) Paths() []string {
	var out []string
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for p := range sh.items {
			out = append(out, p)
		}
		sh.mu.Unlock()
	}
	return out
}

func (n *NVMe) Stats() (int, int64) {
	objects := 0
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		objects += len(sh.items)
		sh.mu.Unlock()
	}
	return objects, n.used.Load()
}

// StatsAtomic is the lock-free variant of Stats for telemetry scrapes:
// it sums the per-shard atomic mirrors, so a scrape never contends with
// the request path. Counts may be mid-update-skewed by in-flight Puts.
//
//ftc:hotpath
func (n *NVMe) StatsAtomic() (objects int64, bytes int64) {
	for i := range n.shards {
		objects += n.shards[i].objects.Load()
	}
	return objects, n.used.Load()
}

// ShardBytes returns the current per-shard byte occupancy (lock-free) —
// the balance observable the /debug/ftcache snapshot exposes.
//
//ftc:hotpath
func (n *NVMe) ShardBytes() []int64 {
	out := make([]int64, len(n.shards))
	for i := range n.shards {
		out[i] = n.shards[i].bytes.Load()
	}
	return out
}

// Counters returns cumulative hit/miss/eviction counts.
func (n *NVMe) Counters() (hits, misses, evictions int64) {
	return n.hits.Load(), n.misses.Load(), n.evictions.Load()
}

// Spills returns the cumulative count of evictions that spilled outside
// the inserting shard — a signal that one shard's insert pressure is
// eating the budget of the others.
func (n *NVMe) Spills() int64 { return n.spills.Load() }

// Capacity returns the configured byte capacity (0 = unbounded).
func (n *NVMe) Capacity() int64 { return n.capacity }

// Clear drops every object — used to model losing a node's cache when
// the node "fails" and later rejoins empty. Shards are cleared one at a
// time; the byte budget is decremented per shard so a concurrent Put
// keeps a consistent view.
func (n *NVMe) Clear() {
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		var bytes int64
		for _, el := range sh.items {
			bytes += int64(len(el.Value.(*nvmeEntry).data))
		}
		sh.items = make(map[string]*list.Element)
		sh.lru.Init()
		n.used.Add(-bytes)
		sh.bytes.Add(-bytes)
		sh.objects.Store(0)
		sh.mu.Unlock()
	}
}

// DefaultPFSShards spreads the shared store's read traffic — every node
// of a job faulting in its first epoch hits the same PFS — across
// independent read-write locks.
const DefaultPFSShards = 16

// PFS is the shared parallel file system: the durable home of the
// training dataset. It counts reads and metadata operations because the
// paper's whole argument is about minimizing them. The object map is
// sharded by path hash; counters are global atomics.
type PFS struct {
	shards []pfsShard
	mask   uint64
	bytes  atomic.Int64

	// readDelay, when > 0 (ns), stalls every Get by that long — the
	// chaos harness's PFS-contention model (a loaded Lustre answering
	// slowly fleet-wide). One atomic load when unset.
	readDelay atomic.Int64

	reads       atomic.Int64
	readBytes   atomic.Int64
	metadataOps atomic.Int64
}

type pfsShard struct {
	mu    sync.RWMutex
	items map[string][]byte
	_     [40]byte // pad to a cache line so shard locks don't false-share
}

// NewPFS creates an empty PFS with DefaultPFSShards shards.
func NewPFS() *PFS {
	p := &PFS{shards: make([]pfsShard, DefaultPFSShards), mask: DefaultPFSShards - 1}
	for i := range p.shards {
		p.shards[i].items = make(map[string][]byte)
	}
	return p
}

func (p *PFS) shardFor(path string) *pfsShard {
	return &p.shards[xhash.XXH64String(path, shardSeed)&p.mask]
}

// Put implements Store (dataset staging, done before training).
func (p *PFS) Put(path string, data []byte) error {
	sh := p.shardFor(path)
	sh.mu.Lock()
	if old, ok := sh.items[path]; ok {
		p.bytes.Add(-int64(len(old)))
	}
	sh.items[path] = data
	p.bytes.Add(int64(len(data)))
	sh.mu.Unlock()
	return nil
}

// Get implements Store, counting one metadata op and one read.
//
//ftc:hotpath
func (p *PFS) Get(path string) ([]byte, error) {
	if d := p.readDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	p.metadataOps.Add(1)
	sh := p.shardFor(path)
	sh.mu.RLock() //ftclint:ignore hotpathlock per-shard read lock is the sharded design; contention is 1/N by construction
	data, ok := sh.items[path]
	sh.mu.RUnlock()
	if !ok {
		return nil, &notFoundError{path}
	}
	p.reads.Add(1)
	p.readBytes.Add(int64(len(data)))
	return data, nil
}

// Has implements Store, counting one metadata op.
func (p *PFS) Has(path string) bool {
	p.metadataOps.Add(1)
	sh := p.shardFor(path)
	sh.mu.RLock()
	_, ok := sh.items[path]
	sh.mu.RUnlock()
	return ok
}

// Size implements Store, counting one metadata op — and nothing else:
// no read, no bytes, no read delay.
func (p *PFS) Size(path string) (int64, bool) {
	p.metadataOps.Add(1)
	sh := p.shardFor(path)
	sh.mu.RLock()
	data, ok := sh.items[path]
	sh.mu.RUnlock()
	return int64(len(data)), ok
}

// Paths lists every staged path (unordered), one shard at a time — the
// dataset manifest that recache and rejoin planning run over. Counts one
// metadata op.
func (p *PFS) Paths() []string {
	p.metadataOps.Add(1)
	var out []string
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for path := range sh.items {
			out = append(out, path)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Delete implements Store.
func (p *PFS) Delete(path string) {
	sh := p.shardFor(path)
	sh.mu.Lock()
	if old, ok := sh.items[path]; ok {
		p.bytes.Add(-int64(len(old)))
		delete(sh.items, path)
	}
	sh.mu.Unlock()
}

// Stats implements Store.
func (p *PFS) Stats() (int, int64) {
	objects := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		objects += len(sh.items)
		sh.mu.RUnlock()
	}
	return objects, p.bytes.Load()
}

// Counters returns cumulative read count, read bytes, and metadata ops.
func (p *PFS) Counters() (reads, readBytes, metadataOps int64) {
	return p.reads.Load(), p.readBytes.Load(), p.metadataOps.Load()
}

// ResetCounters zeroes the access counters (between experiment phases).
func (p *PFS) ResetCounters() {
	p.reads.Store(0)
	p.readBytes.Store(0)
	p.metadataOps.Store(0)
}

// SetReadDelay injects a per-Get service delay (contention model);
// d <= 0 clears it. Takes effect on the next read, fleet-wide — every
// consumer of this PFS (server fallback, client direct read, policy
// probe) observes the same slowdown, exactly like a congested shared
// file system.
func (p *PFS) SetReadDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.readDelay.Store(int64(d))
}

// ReadDelay returns the injected per-Get delay (0 = none).
func (p *PFS) ReadDelay() time.Duration { return time.Duration(p.readDelay.Load()) }
