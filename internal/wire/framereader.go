package wire

import "io"

// frameReadAhead is how much a FrameReader asks its stream for when it
// needs a header: the header and the head of a read response, or a
// whole small frame or several. A larger payload goes from the stream
// straight into its own slice, never through this buffer.
const frameReadAhead = 64

// FrameReader assembles frames from a stream that may be interrupted
// between any two bytes. A Read error — typically a deadline its owner
// set to wake a blocked reader — leaves everything already read in
// place, and the next call continues from there: an interrupted reader
// never loses bytes or desynchronizes the stream. It reads ahead, so
// one Read can carry a header together with a small payload, or several
// small frames.
//
// One goroutine at a time may read from it; which one may change
// between calls.
type FrameReader struct {
	r          io.Reader
	maxPayload int

	buf      [frameReadAhead]byte // read-ahead: buf[off:end] is unconsumed
	off, end int

	f       Frame // the frame in assembly, once its header is parsed
	lease   *Buf  // f.Payload's pooled buffer (ReadFramePooled)
	got     int   // payload bytes of f already in place
	partial bool  // f's header is parsed and its payload is incomplete
}

// NewFrameReader reads frames from r. maxPayload <= 0 selects
// DefaultMaxPayload.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	return &FrameReader{r: r, maxPayload: maxPayload}
}

// ReadFrame returns the next complete frame, its payload freshly
// allocated and owned by the caller (as with the function ReadFrame). A
// framing error (bad magic, version or length) is permanent: the stream
// cannot be resynchronized. Any other error is the stream's own,
// returned as is, with the partial frame kept for the next call;
// io.EOF means the stream ended cleanly between frames.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	f, _, err := fr.next(false)
	return f, err
}

// ReadFramePooled is ReadFrame with the payload leased from the package
// buffer pool, so the steady-state receive path of a server allocates
// nothing per frame. Frame.Payload aliases the lease: the caller
// releases it exactly once, after it is done with the payload (and with
// anything derived from it that still aliases it). On error there is no
// lease to release.
func (fr *FrameReader) ReadFramePooled() (Frame, *Buf, error) {
	return fr.next(true)
}

func (fr *FrameReader) next(pooled bool) (Frame, *Buf, error) {
	if !fr.partial {
		if err := fr.readHeader(pooled); err != nil {
			return Frame{}, nil, err
		}
	}
	for fr.got < len(fr.f.Payload) {
		n, err := fr.r.Read(fr.f.Payload[fr.got:])
		fr.got += n
		if err != nil && fr.got < len(fr.f.Payload) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, nil, err
		}
	}
	f, lease := fr.f, fr.lease
	fr.f, fr.lease, fr.got, fr.partial = Frame{}, nil, 0, false
	return f, lease, nil
}

// readHeader buffers and parses the next frame header, sets up the
// payload and moves whatever of it is already buffered into place.
func (fr *FrameReader) readHeader(pooled bool) error {
	const hlen = 4 + headerLen
	for fr.end-fr.off < hlen {
		if err := fr.fill(); err != nil {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	size, err := parseHeader(fr.buf[fr.off:fr.off+hlen], fr.maxPayload, &fr.f)
	if err != nil {
		return err
	}
	fr.off += hlen
	switch {
	case pooled:
		fr.lease = acquireBuf(size)
		fr.f.Payload = fr.lease.b
	case size > 0:
		fr.f.Payload = make([]byte, size)
	}
	fr.got = copy(fr.f.Payload, fr.buf[fr.off:fr.end])
	fr.off += fr.got
	fr.partial = true
	return nil
}

// fill reads once into the free tail of the buffer, first moving the
// unconsumed part (less than a header) to the front.
func (fr *FrameReader) fill() error {
	fr.end = copy(fr.buf[:], fr.buf[fr.off:fr.end])
	fr.off = 0
	n, err := fr.r.Read(fr.buf[fr.end:])
	fr.end += n
	if n > 0 {
		return nil // a sticky error surfaces on the next Read
	}
	return err
}
