// Test cases for the poollease analyzer over the memtier lease API:
// `lease, ok := tier.Get(path)` acquires on the ok==true branch, and
// the canonical handoff is a Release method value stored into an
// rpc.LeasedResp composite literal.
package a

import (
	"memtier"
	"rpc"
)

// okTierDefer is the canonical miss-guard-then-defer shape.
func okTierDefer(t *memtier.Tier) {
	lease, ok := t.Get("p")
	if !ok {
		return
	}
	defer lease.Release()
	use(lease.Bytes())
}

// okTierIfInit acquires in the if-init; the lease lives only in the
// hit branch.
func okTierIfInit(t *memtier.Tier) {
	if lease, ok := t.Get("p"); ok {
		defer lease.Release()
		use(lease.Bytes())
	}
}

// okTierRespHandoff is the server read path's shape: the Release
// method value rides the response and the flush path owns the lease.
func okTierRespHandoff(t *memtier.Tier) rpc.LeasedResp {
	if lease, ok := t.Get("p"); ok {
		return rpc.LeasedResp{Status: 0, Ext: lease.Bytes(), Release: lease.Release}
	}
	return rpc.LeasedResp{Status: 1}
}

// okTierRespViaLocal stores the handoff literal in a local first.
func okTierRespViaLocal(t *memtier.Tier) rpc.LeasedResp {
	lease, ok := t.Get("p")
	if !ok {
		return rpc.LeasedResp{Status: 1}
	}
	lr := rpc.LeasedResp{Release: lease.Release}
	return lr
}

// okTierInlineRelease releases on the error path before returning.
func okTierInlineRelease(t *memtier.Tier) rpc.LeasedResp {
	if lease, ok := t.Get("p"); ok {
		if len(lease.Bytes()) == 0 {
			lease.Release()
			return rpc.LeasedResp{Status: 2}
		}
		return rpc.LeasedResp{Ext: lease.Bytes(), Release: lease.Release}
	}
	return rpc.LeasedResp{Status: 1}
}

// leakTierLenGuard returns early past a length guard: len only reads
// the bytes, so mentioning the lease in its argument hands nothing off.
func leakTierLenGuard(t *memtier.Tier, n int) int {
	lease, ok := t.Get("p")
	if !ok {
		return 0
	}
	if len(lease.Bytes()) < n {
		return -1 // want `memtier.Tier.Get lease acquired at .* is not released on this path`
	}
	lease.Release()
	return n
}

// okTierAppendHandoff collects hits into a slice that a closure
// releases: append takes the lease itself, so it is a handoff.
func okTierAppendHandoff(t *memtier.Tier, paths []string) func() {
	var leases []*memtier.Lease
	for _, p := range paths {
		lease, ok := t.Get(p)
		if !ok {
			continue
		}
		leases = append(leases, lease)
	}
	return func() {
		for _, l := range leases {
			l.Release()
		}
	}
}

// leakTierEarlyReturn forgets the lease on a branch added between the
// acquisition and the release — the regression class under test.
func leakTierEarlyReturn(t *memtier.Tier, cond bool) {
	lease, ok := t.Get("p")
	if !ok {
		return
	}
	if cond {
		return // want `memtier.Tier.Get lease acquired at .* is not released on this path`
	}
	lease.Release()
}

// leakTierIfInit leaks inside the hit branch.
func leakTierIfInit(t *memtier.Tier, cond bool) {
	if lease, ok := t.Get("p"); ok {
		if cond {
			return // want `memtier.Tier.Get lease acquired at .* is not released on this path`
		}
		lease.Release()
	}
}

// useTierAfterRelease touches the leased bytes after the pool may have
// reused them.
func useTierAfterRelease(t *memtier.Tier) {
	lease, ok := t.Get("p")
	if !ok {
		return
	}
	lease.Release()
	use(lease.Bytes()) // want `lease used after the pooled lease was released`
}

// discardTier can never release a hit's lease.
func discardTier(t *memtier.Tier) {
	t.Get("p") // want `memtier.Tier.Get result discarded`
}

// blankTierLease can never release either; Has is the existence check.
func blankTierLease(t *memtier.Tier) bool {
	_, ok := t.Get("p") // want `memtier.Tier.Get lease assigned to _`
	return ok
}
