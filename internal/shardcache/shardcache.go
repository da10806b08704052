// Package shardcache is the byte-budgeted sharded LRU under both cache
// tiers of the FT-Cache stack: storage.NVMe and memtier.Tier are thin
// shells over one Cache each.
//
// Object paths hash onto power-of-two padded shards, each a mutex, a
// map and an LRU list, so concurrent requests contend only when they
// land on the same shard. Capacity is one global byte budget across the
// shards, so the byte bound is that of an unsharded cache; only the LRU
// victim order becomes per-shard-approximate with more than one shard
// (shards=1 is exact global LRU, for tests). Values are plain slices
// held by reference.
//
// There is one insert step, putLocked: reserve the object's bytes from
// the budget, displacing least-recently-used residents to make room,
// and only then make the object visible — so occupancy never exceeds
// capacity, not even transiently. A tier varies it in two places, fixed
// at construction: whether a candidate may displace a given victim
// (Admission; nil means always) and what happens to a displaced object
// (the onEvict hook; nil means it is dropped).
package shardcache

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/xhash"
)

// DefaultShards is enough to spread a busy node's request goroutines
// (one per in-flight RPC) across independent locks without bloating the
// per-cache footprint.
const DefaultShards = 16

// Hash picks a path's shard (its low bits) and is what an Admission is
// handed. Its seed decorrelates it from the consistent-hash ring's key
// hash, so ring placement does not concentrate a node's keys onto few
// shards.
func Hash(path string) uint64 { return xhash.XXH64String(path, 0x9E3779B97F4A7C15) }

// Admission decides, once the budget is spent, whether a candidate may
// displace a resident. Every method runs under the lock of the shard it
// names, so an implementation may keep unsynchronised per-shard state.
type Admission interface {
	// Touch records one Get of the path hashing to hash, hit or miss.
	Touch(shard int, hash uint64)
	// Weigh returns a candidate's standing, read in its home shard.
	Weigh(shard int, hash uint64) int
	// Displaces reports whether a candidate that weighed w may displace
	// the resident hashing to victim in shard.
	Displaces(w int, shard int, victim uint64) bool
}

// Entry is one object of a PutBatch.
type Entry struct {
	Path string
	Data []byte
}

// Cache is the sharded store. The zero value is not usable; use New.
type Cache struct {
	capacity  int64 // as configured
	limit     int64 // the byte bound: capacity, or MaxInt64 when that is unbounded
	used      atomic.Int64
	shards    []shard
	mask      uint64
	admission Admission
	onEvict   func(path string, data []byte)
	batches   atomic.Uint64 // id of the latest PutBatch call

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	spills    atomic.Int64 // evictions performed outside the inserting shard
}

type shard struct {
	mu    sync.Mutex
	items map[string]*entry
	lru   entry // list sentinel: next = most recently used, prev = least
	// bytes/objects mirror the shard's content for lock-free telemetry
	// reads; written under mu, loaded without it.
	bytes   atomic.Int64
	objects atomic.Int64
	_       [24]byte // pad to two cache lines so shard locks don't false-share
}

// entry is one resident object and its own LRU list node.
type entry struct {
	path       string
	hash       uint64 // Hash(path), so a victim is weighed without rehashing
	data       []byte
	batch      uint64 // the PutBatch call that stored it, whose evictions skip it; 0 for Put
	prev, next *entry
}

func (sh *shard) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

// New creates a cache with the given byte capacity (<= 0 is unbounded)
// and shard count (rounded up to a power of two; non-positive selects
// DefaultShards).
func New(capacity int64, shards int, admission Admission, onEvict func(path string, data []byte)) *Cache {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1 << bits.Len(uint(shards-1))
	c := &Cache{
		capacity:  capacity,
		limit:     capacity,
		shards:    make([]shard, n),
		mask:      uint64(n - 1),
		admission: admission,
		onEvict:   onEvict,
	}
	if capacity <= 0 {
		c.limit = math.MaxInt64
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.items = make(map[string]*entry)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	}
	return c
}

// Get returns the object at path and refreshes its recency, counting a
// hit or a miss. The slice is the stored one: read-only.
//
//ftc:hotpath
func (c *Cache) Get(path string) ([]byte, bool) {
	h := Hash(path)
	sh := &c.shards[h&c.mask]
	sh.mu.Lock() //ftclint:ignore hotpathlock per-shard LRU lock is the sharded design; contention is 1/N by construction
	if c.admission != nil {
		c.admission.Touch(int(h&c.mask), h)
	}
	e := sh.items[path]
	if e == nil {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if sh.lru.next != e {
		sh.unlink(e)
		sh.pushFront(e)
	}
	data := e.data
	sh.mu.Unlock()
	c.hits.Add(1)
	return data, true
}

// Peek returns the object at path as a pure lookup: it neither refreshes
// recency nor counts a hit or miss.
func (c *Cache) Peek(path string) (data []byte, ok bool) {
	sh := &c.shards[Hash(path)&c.mask]
	sh.mu.Lock()
	if e := sh.items[path]; e != nil {
		data, ok = e.data, true
	}
	sh.mu.Unlock()
	return data, ok
}

// Has reports whether path is resident, as purely as Peek.
func (c *Cache) Has(path string) bool {
	_, ok := c.Peek(path)
	return ok
}

// Size returns the byte size of the object at path, as purely as Peek.
func (c *Cache) Size(path string) (int64, bool) {
	data, ok := c.Peek(path)
	return int64(len(data)), ok
}

// Put makes data resident under path, replacing any resident copy (which
// pays only for the size difference), and reports whether it did. It
// does not when data is larger than the whole cache or Admission vetoed
// a displacement — the resident copy, if any, then stays where it was.
func (c *Cache) Put(path string, data []byte) bool {
	var p put
	h := Hash(path)
	home := &c.shards[h&c.mask]
	home.mu.Lock()
	ok := c.putLocked(&p, h, path, data)
	home.mu.Unlock()
	c.handOff(&p)
	return ok
}

// PutBatch stores a batch of objects, normally taking each destination
// shard's lock once for all of that shard's entries, and returns the
// indexes of the entries Put would have refused (nil when there are
// none). The call never evicts what it stored itself — that would turn a
// batch ack into a lie — so pressure falls on older objects across all
// shards first. Only a batch that cannot fit even in an otherwise-empty
// cache falls back to sequential-put semantics: newest insert kept,
// earlier batch-mates evictable.
func (c *Cache) PutBatch(entries []Entry) (refused []int) {
	type pending struct {
		hash uint64
		i    int
	}
	rest := make([]pending, len(entries))
	for i := range entries {
		rest[i] = pending{Hash(entries[i].Path), i}
	}
	p := put{batch: c.batches.Add(1)}
	for len(rest) > 0 {
		// One pass per destination shard: store the entries that live
		// there, keep the others (in order) for a later pass.
		home, later := &c.shards[rest[0].hash&c.mask], rest[:0]
		home.mu.Lock()
		for _, e := range rest {
			if &c.shards[e.hash&c.mask] != home {
				later = append(later, e)
			} else if !c.putLocked(&p, e.hash, entries[e.i].Path, entries[e.i].Data) {
				refused = append(refused, e.i)
			}
		}
		home.mu.Unlock()
		rest = later
	}
	c.handOff(&p)
	return refused
}

// put is the state of one Put or PutBatch call.
type put struct {
	batch   uint64   // non-zero: the PutBatch call, whose members are not to be evicted
	home    *shard   // of the object being inserted
	victims []*entry // objects displaced so far, collected only when there is a hook to hand them to
}

// Outcomes of trying to reserve budget in one shard.
const (
	reserved  = iota
	vetoed    // Admission protected the next victim
	exhausted // the shard ran out of victims
)

// putLocked is the one insert step: reserve, then make visible. Home's
// lock is held on entry and on return, and dropped in between only to
// look for victims on other shards.
func (c *Cache) putLocked(p *put, h uint64, path string, data []byte) bool {
	need := int64(len(data))
	if need > c.limit {
		return false
	}
	home := &c.shards[h&c.mask]
	p.home = home
	old := home.items[path] // nil when path is not resident
	if old != nil {
		need -= int64(len(old.data))
	}
	w := 0
	if c.admission != nil {
		w = c.admission.Weigh(int(h&c.mask), h)
	}
	spilled := false
	for out := c.displaceLocked(p, home, old, w, need); out != reserved; {
		if out == vetoed {
			return false
		}
		// Home has no victim left to give: walk the next shards, and
		// home last with the old copy of path as evictable as anything.
		// The full size is reserved from here on, so whatever copy is
		// resident at the end (the old one, or a racing Put's) goes and
		// its bytes return to the budget.
		home.mu.Unlock()
		old, need, spilled = nil, int64(len(data)), true
		for off := uint64(1); out == exhausted && off <= c.mask+1; off++ {
			sh := &c.shards[(h+off)&c.mask]
			sh.mu.Lock()
			out = c.displaceLocked(p, sh, nil, w, need)
			sh.mu.Unlock()
		}
		if out == exhausted {
			// Nothing evictable anywhere: either the batch alone exceeds
			// the cache, so its protection goes, or every byte left is a
			// racing Put's reservation, about to become evictable.
			if p.batch == 0 {
				runtime.Gosched()
			}
			p.batch = 0
		}
		home.mu.Lock()
	}
	if spilled {
		if cur := home.items[path]; cur != nil {
			c.removeLocked(home, cur)
		}
	}
	e := old
	if e == nil {
		e = &entry{path: path, hash: h}
		home.items[path] = e
		home.objects.Add(1)
	} else {
		home.unlink(e)
	}
	e.data, e.batch = data, p.batch
	home.pushFront(e)
	home.bytes.Add(need)
	return true
}

// displaceLocked reserves need bytes of the budget, evicting from the
// LRU end of sh (lock held) until they fit; keep and the members of p's
// batch are passed over.
func (c *Cache) displaceLocked(p *put, sh *shard, keep *entry, w int, need int64) int {
	v := sh.lru.prev
	for !c.reserve(need) {
		for v != &sh.lru && (v == keep || (p.batch != 0 && v.batch == p.batch)) {
			v = v.prev
		}
		if v == &sh.lru {
			return exhausted
		}
		if c.admission != nil && !c.admission.Displaces(w, int(v.hash&c.mask), v.hash) {
			return vetoed
		}
		next := v.prev
		c.removeLocked(sh, v)
		c.evictions.Add(1)
		if sh != p.home {
			c.spills.Add(1)
		}
		if c.onEvict != nil {
			p.victims = append(p.victims, v)
		}
		v = next
	}
	return reserved
}

// reserve claims size bytes of the budget if that many are free.
func (c *Cache) reserve(size int64) bool {
	for {
		used := c.used.Load()
		if size > c.limit-used {
			return false
		}
		if c.used.CompareAndSwap(used, used+size) {
			return true
		}
	}
}

// removeLocked unlinks e from sh (lock held) and returns its bytes to
// the budget.
func (c *Cache) removeLocked(sh *shard, e *entry) {
	sh.unlink(e)
	delete(sh.items, e.path)
	size := int64(len(e.data))
	c.used.Add(-size)
	sh.bytes.Add(-size)
	sh.objects.Add(-1)
}

// handOff gives a call's victims to the eviction hook; no lock is held.
func (c *Cache) handOff(p *put) {
	for _, v := range p.victims {
		c.onEvict(v.path, v.data)
	}
}

// Delete drops path if resident (no eviction hook); true if it was.
func (c *Cache) Delete(path string) bool {
	sh := &c.shards[Hash(path)&c.mask]
	sh.mu.Lock()
	e := sh.items[path]
	if e != nil {
		c.removeLocked(sh, e)
	}
	sh.mu.Unlock()
	return e != nil
}

// Clear drops every object without the eviction hook (a node losing its
// cache), one shard at a time, so a concurrent Put sees a consistent budget.
func (c *Cache) Clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for sh.lru.prev != &sh.lru {
			c.removeLocked(sh, sh.lru.prev)
		}
		sh.mu.Unlock()
	}
}

// Paths returns every resident path (unordered), taking each shard lock
// in turn: per-shard consistent, not globally atomic.
func (c *Cache) Paths() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for p := range sh.items {
			out = append(out, p)
		}
		sh.mu.Unlock()
	}
	return out
}

// Capacity returns the configured byte budget.
func (c *Cache) Capacity() int64 { return c.capacity }

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Snapshot is a cache's observable state: what every metric, debug row
// and counter of either tier is read from, without a lock, so a scrape
// never contends with the request path (and may be mid-update-skewed).
type Snapshot struct {
	Capacity, Bytes, Objects int64
	Hits, Misses, Evictions  int64
	Spills                   int64   // evictions outside the inserting shard: one shard's pressure eating the others' budget
	ShardBytes               []int64 // per-shard occupancy, the balance observable of /debug/ftcache
}

// Snapshot reads the cache's observable state.
//
//ftc:hotpath
func (c *Cache) Snapshot() Snapshot {
	objects, bytes := c.StatsAtomic()
	return Snapshot{
		Capacity: c.capacity, Bytes: bytes, Objects: objects,
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Evictions: c.evictions.Load(), Spills: c.spills.Load(),
		ShardBytes: c.ShardBytes(),
	}
}

// StatsAtomic returns object count and resident bytes without allocating.
func (c *Cache) StatsAtomic() (objects, bytes int64) {
	for i := range c.shards {
		objects += c.shards[i].objects.Load()
	}
	return objects, c.used.Load()
}

// ShardBytes returns the snapshot's per-shard byte occupancy.
func (c *Cache) ShardBytes() []int64 {
	out := make([]int64, len(c.shards))
	for i := range c.shards {
		out[i] = c.shards[i].bytes.Load()
	}
	return out
}
