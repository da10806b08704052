// Package dep declares one lock-acquiring function and one verified
// hot function; the former's LockFact carries the lock as its Hot
// operation, the latter's carries none, and importers judge calls by
// those facts.
package dep

import "sync"

type Reg struct {
	mu sync.Mutex
	n  int
}

// Slow acquires the registry lock.
func (r *Reg) Slow() {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
}

// Fast is verified at its own definition; callers trust it.
//
//ftc:hotpath
func (r *Reg) Fast() int { return r.n }
