// Package notfoundfmt seeds the fmt allocation on storage's not-found
// error. Until commit 4e432c0, internal/storage's NVMe.Get built every
// miss with fmt.Errorf("%w: %s", ErrNotFound, path), and the miss path
// is as hot as the hit path under a cold cache. hotpathlock found it
// in that commit once Get was marked //ftc:hotpath; the fix is a
// notFoundError type that wraps ErrNotFound without fmt.
package notfoundfmt

import (
	"errors"
	"fmt"
	"sync"
)

var ErrNotFound = errors.New("storage: object not found")

type shard struct {
	mu    sync.Mutex
	items map[string][]byte
}

type NVMe struct {
	shards [16]shard
}

func (n *NVMe) shardFor(path string) *shard { return &n.shards[len(path)%len(n.shards)] }

// Get returns the object stored under path.
//
//ftc:hotpath
func (n *NVMe) Get(path string) ([]byte, error) {
	sh := n.shardFor(path)
	sh.mu.Lock() //ftclint:ignore hotpathlock per-shard lock is the sharded design; contention is 1/N by construction
	data, ok := sh.items[path]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return data, nil
}
