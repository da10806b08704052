package memtier

import "sync/atomic"

// Lease is a zero-copy reference to a resident object's bytes, returned
// by Get. What it pins is the object's slice itself — the immutable
// one the store handed to Admit — so the bytes outlive an eviction or
// Invalidate for as long as the lease (or anything aliasing Bytes) is
// reachable; there is no buffer to recycle underneath a reader.
// Exactly one Release per lease: it is what ActiveLeases counts down,
// and the poollease analyzer enforces the discipline at lint time, the
// same way it does for wire.FrameReader.ReadFramePooled.
type Lease struct {
	tier     *Tier
	data     []byte
	released atomic.Bool
}

// Bytes returns the leased object bytes. Read-only.
func (l *Lease) Bytes() []byte { return l.data }

// Size returns the object's byte length.
func (l *Lease) Size() int64 { return int64(len(l.data)) }

// Release drops the lease. Double-release is a no-op (defensive, like
// wire.Buf), but callers must not rely on it — the analyzer flags
// paths that release twice as readily as paths that never release.
func (l *Lease) Release() {
	if l == nil || l.released.Swap(true) {
		return
	}
	l.tier.leases.Add(-1)
}
