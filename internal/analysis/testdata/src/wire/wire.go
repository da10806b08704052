// Package wire is a minimal stub of the repro wire package for
// analysistest: the poollease analyzer keys on the package name and the
// (*FrameReader).ReadFramePooled / (*Buf).Release shapes, so the stub
// only needs those.
package wire

import "io"

type Frame struct {
	Kind    uint8
	Payload []byte
}

type Buf struct{ released bool }

func (b *Buf) Release() {
	if b != nil {
		b.released = true
	}
}

type FrameReader struct{ r io.Reader }

func NewFrameReader(r io.Reader, maxPayload int) *FrameReader { return &FrameReader{r: r} }

func (fr *FrameReader) ReadFramePooled() (Frame, *Buf, error) {
	return Frame{}, &Buf{}, nil
}
