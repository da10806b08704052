// Package use acquires pooled leases and hands them to imported
// callees: whether the handoff discharges the obligation depends on
// the callee's LeaseSinkFact.
package use

import (
	"poollease2/dep"
	"wire"
)

// okHandoff passes the lease to a cross-package sink: discharged.
func okHandoff(fr *wire.FrameReader) {
	_, lease, err := fr.ReadFramePooled()
	if err != nil {
		return
	}
	dep.Sink(lease)
}

// leakBorrow hands the lease to a callee that provably never releases
// it: the obligation stays here, unmet.
func leakBorrow(fr *wire.FrameReader) error {
	_, lease, err := fr.ReadFramePooled()
	if err != nil {
		return err
	}
	dep.Borrow(lease)
	return nil // want `lease acquired at .* is not released on this path`
}
