// Test cases for the poollease analyzer.
package a

import (
	"errors"

	"wire"
)

func use(b []byte) {}

// hold consumes the lease (the call-graph summary sees the Release),
// so handing a lease to it discharges the caller's obligation.
func hold(l *wire.Buf) { l.Release() }

// borrow inspects the lease but never releases it: passing a lease here
// is not a handoff, and the caller keeps the obligation.
func borrow(l *wire.Buf) bool { return l != nil }

// okDefer is the canonical handler shape: err guard, then defer.
func okDefer(fr *wire.FrameReader) error {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return err
	}
	defer lease.Release()
	use(f.Payload)
	return nil
}

// okInline releases explicitly after the last use.
func okInline(fr *wire.FrameReader) {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return
	}
	use(f.Payload)
	lease.Release()
}

// okGoroutineHandoff transfers the obligation into the goroutine.
func okGoroutineHandoff(fr *wire.FrameReader) {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return
	}
	go func() {
		defer lease.Release()
		use(f.Payload)
	}()
}

// okCallHandoff passes the lease on; the callee owns it now.
func okCallHandoff(fr *wire.FrameReader) {
	_, lease, err := fr.ReadFramePooled()
	if err != nil {
		return
	}
	hold(lease)
}

// leakFalseHandoff passes the lease to a callee whose summary shows it
// never releases: the obligation stays here, unmet.
func leakFalseHandoff(fr *wire.FrameReader) error {
	_, lease, err := fr.ReadFramePooled()
	if err != nil {
		return err
	}
	borrow(lease)
	return nil // want `lease acquired at .* is not released on this path`
}

// leakEarlyReturn is the regression class the pass exists for: an
// early return added between the acquisition and the release.
func leakEarlyReturn(fr *wire.FrameReader) error {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return err
	}
	if len(f.Payload) == 0 {
		return errors.New("empty") // want `lease acquired at .* is not released on this path`
	}
	lease.Release()
	return nil
}

// useAfterRelease reads the payload after the pool may have reused it.
func useAfterRelease(fr *wire.FrameReader) {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return
	}
	lease.Release()
	use(f.Payload) // want `f used after the pooled lease was released`
}

// returnAfterRelease hands the caller an invalidated payload.
func returnAfterRelease(fr *wire.FrameReader) []byte {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return nil
	}
	lease.Release()
	return f.Payload // want `f used after the pooled lease was released` `returning the pooled frame payload`
}

// discard can never release.
func discard(fr *wire.FrameReader) {
	fr.ReadFramePooled() // want `result discarded`
}

// blankLease can never release either.
func blankLease(fr *wire.FrameReader) {
	f, _, err := fr.ReadFramePooled() // want `lease assigned to _`
	_, _ = f, err
}

// goroutineCapture leaks the payload into a goroutine the parent
// cannot synchronize with.
func goroutineCapture(fr *wire.FrameReader) {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return
	}
	go use(f.Payload) // want `goroutine captures the pooled frame or lease without releasing it`
	lease.Release()
}

// suppressedEarlyReturn is a justified false positive: the enclosing
// connection teardown reclaims the pool wholesale.
func suppressedEarlyReturn(fr *wire.FrameReader) error {
	f, lease, err := fr.ReadFramePooled()
	if err != nil {
		return err
	}
	if len(f.Payload) == 0 {
		//ftclint:ignore poollease shutdown-only path; the pool is reclaimed with the connection
		return nil
	}
	lease.Release()
	return nil
}
