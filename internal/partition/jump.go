package partition

import (
	"sort"
	"sync"

	"repro/internal/xhash"
)

// Jump implements Lamping & Veach's jump consistent hash over the live
// node list. Jump hash is the modern alternative to ring hashing when
// buckets only grow/shrink at the end: resizing from n to n+1 moves
// exactly 1/(n+1) of the keys. Its weakness — and why FT-Cache cannot
// use it — is arbitrary-member removal: bucket indices are positional,
// so failing a node in the middle renumbers every later node and strands
// cached data, just like modulo. MeasureFailure quantifies this.
type Jump struct {
	mu   sync.RWMutex
	live []NodeID // sorted; jump bucket i maps to live[i]
}

// NewJump creates a Jump partitioner over nodes.
func NewJump(nodes []NodeID) *Jump {
	j := &Jump{live: append([]NodeID(nil), nodes...)}
	sort.Slice(j.live, func(a, b int) bool { return j.live[a] < j.live[b] })
	return j
}

// jumpHash is the textbook algorithm: O(ln n) expected iterations,
// no memory.
func jumpHash(key uint64, buckets int) int {
	var b, next int64 = -1, 0
	for next < int64(buckets) {
		b = next
		key = key*2862933555777941757 + 1
		next = int64(float64(b+1) * (float64(1<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Owner implements Partitioner.
func (j *Jump) Owner(key string) (NodeID, bool) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if len(j.live) == 0 {
		return "", false
	}
	h := xhash.XXH64String(key, 0)
	return j.live[jumpHash(h, len(j.live))], true
}

// Remove implements Partitioner.
func (j *Jump) Remove(node NodeID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, n := range j.live {
		if n == node {
			j.live = append(j.live[:i], j.live[i+1:]...)
			return
		}
	}
}

// Nodes implements Partitioner.
func (j *Jump) Nodes() []NodeID {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return append([]NodeID(nil), j.live...)
}

var _ Partitioner = (*Jump)(nil)
