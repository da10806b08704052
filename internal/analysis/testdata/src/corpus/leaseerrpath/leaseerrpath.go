// Package leaseerrpath seeds a pooled frame lease dropped on an error
// path: the regression poollease was written for in commit 4e432c0,
// an early return added to a connection handler between
// ReadFramePooled and the Release. The pool then degrades to plain
// allocation, one leaked buffer per malformed request.
package leaseerrpath

import (
	"errors"
	"wire"
)

var errShort = errors.New("short request")

func handle(payload []byte) {}

func serveOne(fr *wire.FrameReader) error {
	f, buf, err := fr.ReadFramePooled()
	if err != nil {
		return err
	}
	if len(f.Payload) < 8 {
		return errShort
	}
	handle(f.Payload)
	buf.Release()
	return nil
}
