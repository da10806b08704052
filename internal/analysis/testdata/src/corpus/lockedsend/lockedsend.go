// Package lockedsend seeds a lock held across a channel send. It is
// the shape of internal/hvac/ingest.go's sealLocked, which hands a
// sealed batch to the sender under the batcher's lock. That send is
// safe there only because the sender never takes the lock, a fact a
// //ftclint:ignore records; here the drain side does take it, so a
// full queue deadlocks the batcher.
package lockedsend

import "sync"

type batch struct{ entries [][]byte }

type batcher struct {
	mu      sync.Mutex
	pending *batch
	queue   chan *batch
	acked   int
}

// add appends one entry and seals the batch when it is full.
func (b *batcher) add(entry []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending == nil {
		b.pending = &batch{}
	}
	b.pending.entries = append(b.pending.entries, entry)
	if len(b.pending.entries) == 32 {
		b.queue <- b.pending
		b.pending = nil
	}
}

// drain is the sender: it counts each batch under the same lock.
func (b *batcher) drain() {
	for bt := range b.queue {
		b.mu.Lock()
		b.acked += len(bt.entries)
		b.mu.Unlock()
	}
}
