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
// Both keep their objects in the sharded structure of package
// shardcache, so concurrent requests from many client goroutines contend
// only when they land on the same shard, not on one global mutex, while
// the NVMe byte bound and ErrTooLarge rule stay those of an unsharded
// cache.
//
// Functional behaviour (what is stored where) is separated from
// performance behaviour: device *models* in device.go turn byte counts
// and concurrency into service times. The discrete-event simulator reads
// them; the live stack runs at memory speed unless a Device is
// configured, and then blocks each read for the modelled time on the
// completion engine (engine.go).
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/shardcache"
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

// NVMe is the node-local cache store: bounded capacity with LRU eviction
// on insert pressure (the cache holds a *replaceable copy* of PFS data,
// so evicting is always safe). It is a shardcache.Cache that admits
// every object and drops what it displaces; Peek, Has, Size, Clear, Paths,
// Capacity, StatsAtomic, ShardBytes and Snapshot are the cache's own.
type NVMe struct {
	*shardcache.Cache
}

// NewNVMe creates a store with the given byte capacity and
// shardcache.DefaultShards shards. capacity <= 0 means unbounded (useful
// in unit tests).
func NewNVMe(capacity int64) *NVMe {
	return NewNVMeShards(capacity, 0)
}

// NewNVMeShards creates a store with an explicit shard count (rounded up
// to a power of two; non-positive selects the default). shards=1 gives
// the exact global LRU order of an unsharded cache, which the
// eviction-order tests rely on.
func NewNVMeShards(capacity int64, shards int) *NVMe {
	return &NVMe{shardcache.New(capacity, shards, nil, nil)}
}

func (n *NVMe) tooLarge(data []byte) error {
	return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), n.Capacity())
}

// Put implements Store, evicting least-recently-used objects as needed.
func (n *NVMe) Put(path string, data []byte) error {
	if !n.Cache.Put(path, data) {
		return n.tooLarge(data)
	}
	return nil
}

// BatchEntry is one object of a PutBatch.
type BatchEntry = shardcache.Entry

// PutBatch stores a batch of objects in one sharded insert pass instead
// of len(entries) lock round-trips — the server-side half of the batched
// ingest pipeline — never evicting a member of the batch to make room
// for another (see shardcache.Cache.PutBatch). Returns one error slot
// per entry (nil on success); the only per-entry failure is ErrTooLarge.
func (n *NVMe) PutBatch(entries []BatchEntry) []error {
	errs := make([]error, len(entries))
	for _, i := range n.Cache.PutBatch(entries) {
		errs[i] = n.tooLarge(entries[i].Data)
	}
	return errs
}

// Get implements Store and refreshes recency on hit.
//
//ftc:hotpath
func (n *NVMe) Get(path string) ([]byte, error) {
	data, ok := n.Cache.Get(path)
	if !ok {
		return nil, &notFoundError{path}
	}
	return data, nil
}

// Delete implements Store.
func (n *NVMe) Delete(path string) { n.Cache.Delete(path) }

// Stats implements Store.
func (n *NVMe) Stats() (int, int64) {
	objects, bytes := n.StatsAtomic()
	return int(objects), bytes
}

// Counters returns cumulative hit/miss/eviction counts.
func (n *NVMe) Counters() (hits, misses, evictions int64) {
	s := n.Snapshot()
	return s.Hits, s.Misses, s.Evictions
}

// Spills returns the cumulative count of evictions that spilled outside
// the inserting shard — a signal that one shard's insert pressure is
// eating the budget of the others.
func (n *NVMe) Spills() int64 { return n.Snapshot().Spills }

// PFS is the shared parallel file system: the durable home of the
// training dataset. It counts reads and metadata operations because the
// paper's whole argument is about minimizing them. The objects live in
// an unbounded shardcache.Cache, which never evicts and is only looked
// up purely — a sharded map; the counters are global atomics.
type PFS struct {
	objects *shardcache.Cache

	// device, when set, makes every Get wait out one modelled read — the
	// chaos harness's PFS-contention model (a loaded Lustre answering
	// slowly fleet-wide). One atomic load when unset.
	device atomic.Pointer[Device]

	reads       atomic.Int64
	readBytes   atomic.Int64
	metadataOps atomic.Int64
}

// NewPFS creates an empty PFS, sharded to spread the read traffic of a
// whole job faulting in its first epoch.
func NewPFS() *PFS {
	return &PFS{objects: shardcache.New(0, 0, nil, nil)}
}

// Put implements Store (dataset staging, done before training).
func (p *PFS) Put(path string, data []byte) error {
	p.objects.Put(path, data)
	return nil
}

// Get implements Store, counting one metadata op and one read.
//
//ftc:hotpath
func (p *PFS) Get(path string) ([]byte, error) {
	if dev := p.device.Load(); dev != nil {
		dev.Read(p.sizeOf(path)) //ftclint:ignore hotpathlock the modelled wait is the point of a configured delay; its queue locks are held for a heap push, never across the wait
	}
	p.metadataOps.Add(1)
	data, ok := p.objects.Peek(path) //ftclint:ignore hotpathlock per-shard lock is the sharded design; contention is 1/N by construction
	if !ok {
		return nil, &notFoundError{path}
	}
	p.reads.Add(1)
	p.readBytes.Add(int64(len(data)))
	return data, nil
}

// sizeOf is the byte size a modelled read of path is charged for (0 when
// absent: a miss pays the access, not a transfer).
func (p *PFS) sizeOf(path string) int64 {
	size, _ := p.objects.Size(path)
	return size
}

// Has implements Store, counting one metadata op.
func (p *PFS) Has(path string) bool {
	p.metadataOps.Add(1)
	return p.objects.Has(path)
}

// Size implements Store, counting one metadata op — and nothing else:
// no read, no bytes, no read delay.
func (p *PFS) Size(path string) (int64, bool) {
	p.metadataOps.Add(1)
	return p.objects.Size(path)
}

// Paths lists every staged path (unordered), one shard at a time — the
// dataset manifest that recache and rejoin planning run over. Counts one
// metadata op.
func (p *PFS) Paths() []string {
	p.metadataOps.Add(1)
	return p.objects.Paths()
}

// Delete implements Store.
func (p *PFS) Delete(path string) { p.objects.Delete(path) }

// Stats implements Store.
func (p *PFS) Stats() (int, int64) {
	objects, bytes := p.objects.StatsAtomic()
	return int(objects), bytes
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

// SetReadDelay injects a per-Get service delay (contention model): an
// unqueued constant Device; d <= 0 clears it. Takes effect on the next
// read — one already waiting keeps the delay it was admitted with —
// fleet-wide: every consumer of this PFS (server fallback, client direct
// read, policy probe) observes the same slowdown, exactly like a
// congested shared file system.
func (p *PFS) SetReadDelay(d time.Duration) {
	if d <= 0 {
		p.device.Store(nil)
		return
	}
	p.device.Store(ConstantDevice(d, 0))
}

// ReadDelay returns the injected per-Get delay (0 = none).
func (p *PFS) ReadDelay() time.Duration {
	if dev := p.device.Load(); dev != nil {
		return dev.ReadTime(0, 1)
	}
	return 0
}
