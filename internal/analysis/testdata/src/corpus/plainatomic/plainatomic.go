// Package plainatomic seeds a plain read of a field written with
// atomic.Add: the race in the first draft of the sharded stores
// (commit 8cc5917), where each shard counted hits with
// atomic.AddInt64 and the stats snapshot read the same field plainly.
// -race sees it only when the two interleave. The stores now count
// with the typed atomic.Int64.
package plainatomic

import (
	"sync"
	"sync/atomic"
)

type shard struct {
	mu    sync.Mutex
	items map[string][]byte
	hits  int64
}

func (s *shard) get(key string) ([]byte, bool) {
	s.mu.Lock()
	data, ok := s.items[key]
	s.mu.Unlock()
	if ok {
		atomic.AddInt64(&s.hits, 1)
	}
	return data, ok
}

// Hits is the stats snapshot.
func (s *shard) Hits() int64 { return s.hits }
