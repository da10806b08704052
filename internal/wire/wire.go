// Package wire implements the binary framing and primitive codecs used by
// the FT-Cache RPC layer. It plays the role Mercury's encoding layer
// played in the C++ artifact: fixed little-endian integers, length-
// prefixed byte strings, and a compact frame header.
//
// Frame layout on the wire (all little-endian):
//
//	offset size field
//	0      4    frame length (bytes after this field)
//	4      2    magic 0xF7CA
//	6      1    version (currently 1)
//	7      1    type (Request | Response)
//	8      8    request id
//	16     2    opcode
//	18     2    status (0 for requests)
//	20     n    payload
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame types.
const (
	TypeRequest  = 1
	TypeResponse = 2
)

// Magic identifies FT-Cache frames; a mismatch means a foreign or corrupt
// stream and the connection must be dropped.
const Magic = 0xF7CA

// Version is the current protocol version.
const Version = 1

const headerLen = 16 // bytes after the length field

// DefaultMaxPayload bounds a frame's payload to guard against corrupt
// length prefixes. Large enough for one full cache object read.
const DefaultMaxPayload = 64 << 20

// Frame is one request or response message.
type Frame struct {
	Type    uint8
	ID      uint64
	Op      uint16
	Status  uint16
	Payload []byte
}

// Errors returned by frame parsing.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrFrameTooBig = errors.New("wire: frame exceeds max payload")
	ErrShortFrame  = errors.New("wire: frame shorter than header")
)

// Buf is a leased frame-body buffer from the package pool. Release
// returns it for reuse; after Release the bytes (and any Frame.Payload
// aliasing them) must no longer be touched. The zero-value rule for
// safety: every FrameReader.ReadFramePooled success pairs with exactly
// one Release.
type Buf struct {
	b []byte
}

// Bytes returns the leased bytes (the frame body after the length field).
func (b *Buf) Bytes() []byte { return b.b }

// Release returns the buffer to the pool. Double-release is a no-op.
// Oversized buffers (above maxPooledBuf) are dropped instead of pooled
// so one giant frame cannot pin memory for the process lifetime.
func (b *Buf) Release() {
	if b == nil || b.b == nil {
		return
	}
	if cap(b.b) > maxPooledBuf {
		b.b = nil // let the GC take the oversized backing array
		return
	}
	b.b = b.b[:0]
	bufPool.Put(b)
}

// bufPool recycles frame encode/decode buffers.
var bufPool = sync.Pool{New: func() any { return new(Buf) }}

const maxPooledBuf = 1 << 20

func acquireBuf(n int) *Buf {
	b := bufPool.Get().(*Buf)
	if cap(b.b) < n {
		b.b = make([]byte, n)
	} else {
		b.b = b.b[:n]
	}
	return b
}

// AppendFrame encodes f (length prefix, header, payload) onto dst and
// returns the extended slice — the append-style primitive WriteFrame and
// the coalescing writer share, so one buffer can hold many frames and a
// single Write flushes them all.
func AppendFrame(dst []byte, f *Frame) []byte {
	return appendFrameHead(dst, f, 0)
}

// appendFrameHead is AppendFrame with room declared for extLen external
// payload bytes that will be spliced in at write time (the zero-copy
// tail of a leased response): the length prefix covers Payload+extLen,
// but only Payload is encoded here.
func appendFrameHead(dst []byte, f *Frame, extLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+len(f.Payload)+extLen))
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, f.Type)
	dst = binary.LittleEndian.AppendUint64(dst, f.ID)
	dst = binary.LittleEndian.AppendUint16(dst, f.Op)
	dst = binary.LittleEndian.AppendUint16(dst, f.Status)
	return append(dst, f.Payload...)
}

// WriteFrame serializes f to w in a single Write call (one buffer) so
// concurrent writers only need external mutual exclusion per frame. The
// encode buffer comes from an internal pool, so steady-state framing does
// not allocate; w must not retain the slice past the Write call (no
// net.Conn or bytes.Buffer does).
func WriteFrame(w io.Writer, f *Frame) error {
	bp := acquireBuf(4 + headerLen + len(f.Payload))
	bp.b = AppendFrame(bp.b[:0], f)
	_, err := w.Write(bp.b)
	bp.Release()
	return err
}

// readHeader reads and validates the length prefix and fixed header into
// hdr (which must be 4+headerLen bytes of pooled or otherwise long-lived
// memory, so the interface call to r does not force a per-frame heap
// allocation), returning the payload byte count still unread on r.
func readHeader(r io.Reader, maxPayload int, hdr []byte, f *Frame) (int, error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, err
	}
	if _, err := payloadLen(hdr, maxPayload); err != nil {
		return 0, err // judged on the length prefix alone, before reading on
	}
	if _, err := io.ReadFull(r, hdr[4:4+headerLen]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return parseHeader(hdr, maxPayload, f)
}

// payloadLen validates a frame's length prefix (hdr[:4]) and returns
// its payload byte count. maxPayload <= 0 selects DefaultMaxPayload.
func payloadLen(hdr []byte, maxPayload int) (int, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < headerLen {
		return 0, ErrShortFrame
	}
	if int(n)-headerLen > maxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return int(n) - headerLen, nil
}

// parseHeader validates a whole frame header (hdr[:4+headerLen]) into f
// and returns the payload byte count that follows it.
func parseHeader(hdr []byte, maxPayload int, f *Frame) (int, error) {
	n, err := payloadLen(hdr, maxPayload)
	if err != nil {
		return 0, err
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != Magic {
		return 0, ErrBadMagic
	}
	if hdr[6] != Version {
		return 0, ErrBadVersion
	}
	f.Type = hdr[7]
	f.ID = binary.LittleEndian.Uint64(hdr[8:16])
	f.Op = binary.LittleEndian.Uint16(hdr[16:18])
	f.Status = binary.LittleEndian.Uint16(hdr[18:20])
	return n, nil
}

// ReadFrame reads one frame from r. maxPayload <= 0 selects
// DefaultMaxPayload. The returned payload is freshly allocated and owned
// by the caller — use this on paths that hand the payload to application
// code (FrameReader.ReadFrame is the same for a reader that may be
// interrupted mid-frame). It performs exactly one allocation per
// non-empty frame: the payload itself.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	var f Frame
	hp := acquireBuf(4 + headerLen)
	n, err := readHeader(r, maxPayload, hp.b, &f)
	hp.Release()
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// Buffer is an append-only encoder for message payloads.
type Buffer struct {
	b []byte
}

// NewBuffer creates a Buffer with the given capacity hint.
func NewBuffer(capacity int) *Buffer { return &Buffer{b: make([]byte, 0, capacity)} }

// Bytes returns the encoded payload.
func (e *Buffer) Bytes() []byte { return e.b }

// Len returns the current encoded length.
func (e *Buffer) Len() int { return len(e.b) }

// Reset empties the buffer, keeping the backing array for reuse.
func (e *Buffer) Reset() { e.b = e.b[:0] }

// U8 appends a byte.
func (e *Buffer) U8(v uint8) *Buffer { e.b = append(e.b, v); return e }

// U16 appends a little-endian uint16.
func (e *Buffer) U16(v uint16) *Buffer {
	e.b = binary.LittleEndian.AppendUint16(e.b, v)
	return e
}

// U32 appends a little-endian uint32.
func (e *Buffer) U32(v uint32) *Buffer {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
	return e
}

// U64 appends a little-endian uint64.
func (e *Buffer) U64(v uint64) *Buffer {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
	return e
}

// I64 appends a little-endian int64 (two's complement).
func (e *Buffer) I64(v int64) *Buffer { return e.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (e *Buffer) Bool(v bool) *Buffer {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// Bytes32 appends a uint32 length prefix followed by raw bytes.
func (e *Buffer) Bytes32(v []byte) *Buffer {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
	return e
}

// String appends a length-prefixed UTF-8 string.
func (e *Buffer) String(s string) *Buffer {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
	return e
}

// ErrTruncated indicates a payload ended before a field was complete.
var ErrTruncated = errors.New("wire: truncated payload")

// Reader decodes primitive fields from a payload with a sticky error:
// after any failure every subsequent read returns zero values, so callers
// can decode a whole struct and check Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps payload b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, or nil.
func (d *Reader) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Reader) Remaining() int { return len(d.b) - d.off }

func (d *Reader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = ErrTruncated
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Reader) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U16 reads a little-endian uint16.
func (d *Reader) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

// U32 reads a little-endian uint32.
func (d *Reader) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a little-endian uint64.
func (d *Reader) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I64 reads a little-endian int64.
func (d *Reader) I64() int64 { return int64(d.U64()) }

// Bool reads one byte as a boolean.
func (d *Reader) Bool() bool { return d.U8() != 0 }

// Bytes32 reads a uint32-length-prefixed byte slice. The returned slice
// aliases the payload; callers that retain it must copy.
func (d *Reader) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Reader) String() string { return string(d.Bytes32()) }
