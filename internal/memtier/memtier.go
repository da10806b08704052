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
// The structure underneath is the byte-budgeted sharded LRU of package
// shardcache, the one storage.NVMe is built on; what is the tier's own
// is the admission rule, the lease, and demotion. Demotion is
// RAM→NVMe→PFS: every eviction hands the object to the OnDemote
// callback, which the server uses to guarantee the next tier down still
// holds it before the RAM reference dies.
package memtier

import (
	"sync/atomic"

	"repro/internal/shardcache"
)

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
	cache    *shardcache.Cache
	freq     []sketch // per shard: read counts of its keys, resident or not
	onDemote OnDemote // nil = no demotion hook

	admits        atomic.Int64
	rejected      atomic.Int64 // Admit calls the frequency rule turned away
	demotions     atomic.Int64 // evictions that ran the OnDemote hook
	invalidations atomic.Int64
	leases        atomic.Int64 // currently outstanding leases (gauge)
}

// New creates a tier with the given byte capacity and
// shardcache.DefaultShards shards. capacity <= 0 disables admission
// entirely (Admit refuses everything) — a disabled tier is still safe
// to Get/Invalidate on.
func New(capacity int64, onDemote OnDemote) *Tier {
	return NewShards(capacity, 0, onDemote)
}

// NewShards is New with an explicit shard count (rounded up to a power
// of two; non-positive selects the default). shards=1 gives exact
// global LRU order, which the eviction-order tests rely on.
func NewShards(capacity int64, shards int, onDemote OnDemote) *Tier {
	t := &Tier{onDemote: onDemote}
	t.cache = shardcache.New(capacity, shards, (*frequency)(t), t.demote)
	t.freq = make([]sketch, t.cache.Shards())
	for i := range t.freq {
		t.freq[i] = newSketch(capacity / int64(len(t.freq)))
	}
	return t
}

// frequency is the tier as its cache's shardcache.Admission, which runs
// each method under the lock of the shard whose sketch it uses.
type frequency Tier

// Touch counts one read toward hash's admission frequency.
func (f *frequency) Touch(shard int, hash uint64) {
	if f.freq[shard].touch(hash) {
		// The next window is agePerObject reads for each object the
		// shard holds on average, so it tracks the resident set whatever
		// the object size (the sketch caps it at what its width can tell
		// apart).
		objects, _ := f.cache.StatsAtomic()
		f.freq[shard].age(int(objects) * agePerObject / len(f.freq))
	}
}

// Weigh is the candidate's estimated read count.
func (f *frequency) Weigh(shard int, hash uint64) int { return f.freq[shard].estimate(hash) }

// Displaces is the admission rule: a victim goes only to a candidate
// read more than admitMargin more often.
func (f *frequency) Displaces(count int, shard int, victim uint64) bool {
	return f.freq[shard].estimate(victim)+admitMargin < count
}

// demote is the cache's eviction hook.
func (t *Tier) demote(path string, data []byte) {
	if t.onDemote != nil {
		t.onDemote(path, data)
		t.demotions.Add(1)
	}
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
	data, ok := t.cache.Get(path)
	if !ok {
		return nil, false
	}
	t.leases.Add(1)
	return &Lease{tier: t, data: data}, true
}

// Has reports residency without perturbing recency or counters.
func (t *Tier) Has(path string) bool { return t.cache.Has(path) }

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
func (t *Tier) Admit(path string, data []byte) bool {
	if capacity := t.cache.Capacity(); capacity <= 0 || int64(len(data)) > capacity {
		return false
	}
	admitted := t.cache.Put(path, data)
	if admitted {
		t.admits.Add(1)
	} else {
		t.rejected.Add(1)
	}
	return admitted
}

// Invalidate removes path if resident, reporting whether it was. The
// object is dropped without demotion: invalidation means it is stale
// (ownership moved, or a writer replaced it), so pushing the old bytes
// down a tier would resurrect them. Outstanding leases stay valid
// until released.
func (t *Tier) Invalidate(path string) bool {
	ok := t.cache.Delete(path)
	if ok {
		t.invalidations.Add(1)
	}
	return ok
}

// Clear drops every resident object without demotion — the crash /
// re-own path (a node losing its tier on restart starts empty). Read
// counts survive: they describe the traffic, not the content.
func (t *Tier) Clear() { t.cache.Clear() }

// Snapshot returns the state of the cache underneath.
func (t *Tier) Snapshot() shardcache.Snapshot { return t.cache.Snapshot() }

// Counters returns the cumulative hit/miss/admit/eviction/demotion/
// invalidation counts.
func (t *Tier) Counters() (hits, misses, admits, evictions, demotions, invalidations int64) {
	s := t.cache.Snapshot()
	return s.Hits, s.Misses, t.admits.Load(),
		s.Evictions, t.demotions.Load(), t.invalidations.Load()
}

// Rejected returns how many Admit calls the frequency rule refused — a
// full tier turning candidates away is working; a tier that is neither
// full nor admitting is not being offered anything.
func (t *Tier) Rejected() int64 { return t.rejected.Load() }

// ActiveLeases returns the number of leases handed out by Get and not
// yet released — the leak observable the chaos soak asserts is zero
// once traffic drains.
func (t *Tier) ActiveLeases() int64 { return t.leases.Load() }
