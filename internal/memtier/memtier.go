// Package memtier is the RAM tier of the FT-Cache storage stack: a
// sharded in-memory object cache that sits in front of the NVMe store
// on the server read path (Hoard-style — RAM above local flash above
// the PFS).
//
// Admission is driven by the byte budget, not by a hotness threshold:
// while the tier has free bytes every object offered to Admit becomes
// resident; once it is full a candidate displaces the least-recently-
// used object of its shard only if the candidate has recently been
// read clearly more often (see admitMargin). The read counts come from
// a small aging count-min sketch per shard that Get updates under the
// shard lock it already holds. A uniform scan of a dataset larger than
// the tier therefore leaves the resident set alone, while under skew
// the budget converges on the head of the access distribution.
//
// Residency is by reference: the tier keeps the immutable slice it was
// handed (the one NVMe and the miss flight already share with every
// reader) and never copies it. Get returns a Lease on that slice, which
// the response writer holds until the coalesced flush has the bytes on
// the wire; eviction only drops the tier's reference, so a leased
// object stays intact for as long as anyone still reads it.
//
// Accounting mirrors storage.NVMe: a single global atomic byte budget
// across power-of-two shards (per-shard mutex + map + LRU) and
// per-shard atomic byte/object mirrors for lock-free telemetry.
// Demotion is RAM→NVMe→PFS: every eviction hands the object to the
// OnDemote callback, which the server uses to guarantee the next tier
// down still holds it before the RAM reference dies.
package memtier

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/xhash"
)

// DefaultShards matches storage.DefaultNVMeShards: enough to spread a
// busy node's request goroutines across independent locks.
const DefaultShards = 16

// shardSeed decorrelates the shard-pick hash from the consistent-hash
// ring's key hash (same constant as the NVMe store, same reason).
const shardSeed = 0x9E3779B97F4A7C15

// admitMargin is the hysteresis of the admission rule: into a full tier
// a candidate is admitted only if its estimated read count exceeds the
// victim's by more than this. One of the margin is the very read that
// is offering the candidate (Get counted it before Admit runs); the
// other keeps near-ties at the cold edge of the resident set from
// trading places on every read, which is what a uniform scan would
// otherwise turn into per-read churn.
const admitMargin = 2

// OnDemote is called for every object evicted by admission pressure,
// outside any shard lock. The server's demotion hook re-fills NVMe when
// the object is no longer resident there, completing the RAM→NVMe→PFS
// chain. Invalidate and Clear do NOT demote: an invalidated object is
// being removed because its bytes are no longer true.
type OnDemote func(path string, data []byte)

// Tier is the sharded RAM cache. The zero value is not usable; use New.
type Tier struct {
	capacity int64
	used     atomic.Int64
	shards   []shard
	mask     uint64
	onDemote OnDemote // nil = no demotion hook

	hits          atomic.Int64
	misses        atomic.Int64
	admits        atomic.Int64
	rejected      atomic.Int64 // Admit calls the frequency rule turned away
	evictions     atomic.Int64
	demotions     atomic.Int64 // evictions that ran the OnDemote hook
	invalidations atomic.Int64
	leases        atomic.Int64 // currently outstanding leases (gauge)
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	freq  sketch     // read counts of this shard's keys, resident or not
	// bytes/objects mirror the shard's content for lock-free telemetry
	// reads; written under mu, loaded without it.
	bytes   atomic.Int64
	objects atomic.Int64
	_       [32]byte // pad to three cache lines so shard locks don't false-share
}

// entry is one resident object. hash is the path's shard hash, kept so
// a victim's read count can be looked up without rehashing its path.
type entry struct {
	path string
	hash uint64
	data []byte
}

// New creates a tier with the given byte capacity and DefaultShards
// shards. capacity <= 0 disables admission entirely (Admit refuses
// everything) — a disabled tier is still safe to Get/Invalidate on.
func New(capacity int64, onDemote OnDemote) *Tier {
	return NewShards(capacity, DefaultShards, onDemote)
}

// NewShards is New with an explicit shard count (rounded up to a power
// of two; non-positive selects DefaultShards). shards=1 gives exact
// global LRU order, which the eviction-order tests rely on.
func NewShards(capacity int64, shards int, onDemote OnDemote) *Tier {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Tier{
		capacity: capacity,
		shards:   make([]shard, n),
		mask:     uint64(n - 1),
		onDemote: onDemote,
	}
	for i := range t.shards {
		t.shards[i].items = make(map[string]*list.Element)
		t.shards[i].lru = list.New()
		t.shards[i].freq = newSketch(capacity / int64(n))
	}
	return t
}

// locate hashes path once; the low bits pick the shard and the sketch
// derives its counter indexes from the rest.
func (t *Tier) locate(path string) (*shard, uint64) {
	h := xhash.XXH64String(path, shardSeed)
	return &t.shards[h&t.mask], h
}

// Get returns a zero-copy lease on path's bytes, refreshing recency and
// counting the read — hit or miss — toward path's admission frequency.
// ok=false means not resident (and the returned lease is nil). The
// caller owns exactly one Release on the returned lease; the bytes
// stay valid — even across a concurrent eviction or Invalidate — until
// that Release.
//
//ftc:hotpath
func (t *Tier) Get(path string) (*Lease, bool) {
	sh, h := t.locate(path)
	sh.mu.Lock() //ftclint:ignore hotpathlock per-shard LRU lock is the sharded design; contention is 1/N by construction
	if sh.freq.touch(h) {
		sh.freq.age(t.agePeriod())
	}
	el, ok := sh.items[path]
	if !ok {
		sh.mu.Unlock()
		t.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	data := el.Value.(*entry).data
	sh.mu.Unlock()
	t.hits.Add(1)
	t.leases.Add(1)
	return &Lease{tier: t, data: data}, true
}

// agePeriod is how many reads a shard counts between halvings of its
// sketch: agePerObject for each object the shard holds on average, so
// the frequency window tracks the resident set whatever the object
// size (the sketch caps it at what its width can tell apart).
func (t *Tier) agePeriod() int {
	objects, _ := t.StatsAtomic()
	return int(objects) * agePerObject / len(t.shards)
}

// Has reports residency without perturbing recency or counters.
func (t *Tier) Has(path string) bool {
	sh, _ := t.locate(path)
	sh.mu.Lock()
	_, ok := sh.items[path]
	sh.mu.Unlock()
	return ok
}

// Admit offers data for residency under path and reports whether the
// tier took it. data is kept by reference: it must be immutable and
// owned by the store (the slice NVMe or the miss flight hands out),
// never an RPC or pool buffer that will be reused.
//
// While the budget has room the object is simply inserted. Into a full
// tier it displaces least-recently-used objects of its own shard (of
// the next non-empty shard when its own has none to give), and only
// while each victim's estimated read count is more than admitMargin
// below the candidate's; at the first victim that is not, the candidate
// is refused. Objects larger than the whole tier are always refused —
// they live on NVMe only. Admitting an already-resident path replaces
// its bytes under the same rule, paying only for the size difference;
// a refusal leaves the resident copy where it was.
//
// The whole decision normally runs in one critical section of the home
// shard; that lock is dropped only to look for victims on other shards.
func (t *Tier) Admit(path string, data []byte) bool {
	size := int64(len(data))
	if t.capacity <= 0 || size > t.capacity {
		return false
	}
	var victims []*entry
	home, h := t.locate(path)
	home.mu.Lock()
	old := home.items[path] // nil when path is not resident
	need := size
	if old != nil {
		need -= int64(len(old.Value.(*entry).data))
	}
	count := home.freq.estimate(h)
	admitted, refused := t.displaceLocked(home, old, count, need, &victims)
	if admitted {
		t.insertLocked(home, old, &entry{path: path, hash: h, data: data})
	}
	home.mu.Unlock()

	if !admitted && !refused {
		for off := uint64(1); off <= t.mask && !admitted && !refused; off++ {
			sh := &t.shards[(h+off)&t.mask]
			sh.mu.Lock()
			admitted, refused = t.displaceLocked(sh, nil, count, size, &victims)
			sh.mu.Unlock()
		}
		if admitted {
			// The full size is reserved, so whatever copy of path is
			// resident by now (the old one, or a racing Admit's) goes
			// and its bytes return to the budget.
			home.mu.Lock()
			if el := home.items[path]; el != nil {
				t.removeLocked(home, el)
			}
			t.insertLocked(home, nil, &entry{path: path, hash: h, data: data})
			home.mu.Unlock()
		}
	}
	if admitted {
		t.admits.Add(1)
	} else {
		t.rejected.Add(1)
	}
	t.evictions.Add(int64(len(victims)))
	if t.onDemote != nil {
		for _, v := range victims {
			t.onDemote(v.path, v.data)
			t.demotions.Add(1)
		}
	}
	return admitted
}

// displaceLocked reserves need bytes of budget, evicting from the LRU
// end of sh (lock held) residents read clearly less often than count
// until they fit; keep is never evicted. refused means it met a
// resident that is not; neither means sh ran out of residents.
func (t *Tier) displaceLocked(sh *shard, keep *list.Element, count int, need int64, victims *[]*entry) (reserved, refused bool) {
	tail := sh.lru.Back()
	for !t.reserve(need) {
		if tail != nil && tail == keep {
			tail = tail.Prev()
		}
		if tail == nil {
			return false, false
		}
		if sh.freq.estimate(tail.Value.(*entry).hash)+admitMargin >= count {
			return false, true
		}
		next := tail.Prev()
		*victims = append(*victims, t.removeLocked(sh, tail))
		tail = next
	}
	return true, false
}

// insertLocked makes ent resident in sh (lock held) as its most recently
// used object, in place of old when that is non-nil. The caller has
// reserved the bytes ent adds.
func (t *Tier) insertLocked(sh *shard, old *list.Element, ent *entry) {
	added := int64(len(ent.data))
	if old != nil {
		added -= int64(len(old.Value.(*entry).data))
		old.Value = ent
		sh.lru.MoveToFront(old)
	} else {
		sh.items[ent.path] = sh.lru.PushFront(ent)
		sh.objects.Add(1)
	}
	sh.bytes.Add(added)
}

// reserve claims size bytes of the budget if that many are free.
func (t *Tier) reserve(size int64) bool {
	for {
		used := t.used.Load()
		if used+size > t.capacity {
			return false
		}
		if t.used.CompareAndSwap(used, used+size) {
			return true
		}
	}
}

// removeLocked unlinks el from sh (lock held) and returns its bytes to
// the budget.
func (t *Tier) removeLocked(sh *shard, el *list.Element) *entry {
	ent := sh.lru.Remove(el).(*entry)
	delete(sh.items, ent.path)
	size := int64(len(ent.data))
	t.used.Add(-size)
	sh.bytes.Add(-size)
	sh.objects.Add(-1)
	return ent
}

// Invalidate removes path if resident, reporting whether it was. The
// object is dropped without demotion: invalidation means it is stale
// (ownership moved, or a writer replaced it), so pushing the old bytes
// down a tier would resurrect them. Outstanding leases stay valid
// until released.
func (t *Tier) Invalidate(path string) bool {
	sh, _ := t.locate(path)
	sh.mu.Lock()
	el, ok := sh.items[path]
	if ok {
		t.removeLocked(sh, el)
	}
	sh.mu.Unlock()
	if ok {
		t.invalidations.Add(1)
	}
	return ok
}

// Clear drops every resident object without demotion — the crash /
// re-own path (a node losing its tier on restart starts empty). Read
// counts survive: they describe the traffic, not the content.
func (t *Tier) Clear() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for sh.lru.Len() > 0 {
			t.removeLocked(sh, sh.lru.Back())
		}
		sh.mu.Unlock()
	}
}

// Capacity returns the configured byte budget (<= 0 = disabled).
func (t *Tier) Capacity() int64 { return t.capacity }

// StatsAtomic returns object count and resident bytes from the atomic
// mirrors — lock-free, for telemetry scrapes.
//
//ftc:hotpath
func (t *Tier) StatsAtomic() (objects, bytes int64) {
	for i := range t.shards {
		objects += t.shards[i].objects.Load()
	}
	return objects, t.used.Load()
}

// ShardBytes returns per-shard byte occupancy (lock-free).
func (t *Tier) ShardBytes() []int64 {
	out := make([]int64, len(t.shards))
	for i := range t.shards {
		out[i] = t.shards[i].bytes.Load()
	}
	return out
}

// Counters returns the cumulative hit/miss/admit/eviction/demotion/
// invalidation counts.
func (t *Tier) Counters() (hits, misses, admits, evictions, demotions, invalidations int64) {
	return t.hits.Load(), t.misses.Load(), t.admits.Load(),
		t.evictions.Load(), t.demotions.Load(), t.invalidations.Load()
}

// Rejected returns how many Admit calls the frequency rule refused — a
// full tier turning candidates away is working; a tier that is neither
// full nor admitting is not being offered anything.
func (t *Tier) Rejected() int64 { return t.rejected.Load() }

// ActiveLeases returns the number of leases handed out by Get and not
// yet released — the leak observable the chaos soak asserts is zero
// once traffic drains.
func (t *Tier) ActiveLeases() int64 { return t.leases.Load() }
