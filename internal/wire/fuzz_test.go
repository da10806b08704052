package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hardens the frame parser against corrupt streams: it
// must return an error or a valid frame, never panic or over-allocate.
func FuzzReadFrame(f *testing.F) {
	// Seed with valid frames and mutations.
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Type: TypeRequest, ID: 1, Op: 2, Payload: []byte("seed")})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 1<<20)
		// The buffer-lease decode path must agree with the allocating
		// path on every input: same error or same frame.
		pfr, lease, perr := NewFrameReader(bytes.NewReader(data), 1<<20).ReadFramePooled()
		if (err == nil) != (perr == nil) {
			t.Fatalf("decode paths disagree: plain err=%v pooled err=%v", err, perr)
		}
		if err != nil {
			if lease != nil {
				t.Fatal("pooled decode returned a lease alongside an error")
			}
			return
		}
		if pfr.ID != fr.ID || pfr.Op != fr.Op || pfr.Type != fr.Type ||
			pfr.Status != fr.Status || !bytes.Equal(pfr.Payload, fr.Payload) {
			t.Fatal("pooled decode mismatch")
		}
		lease.Release()
		// A successfully parsed frame must round-trip.
		var out bytes.Buffer
		if werr := WriteFrame(&out, &fr); werr != nil {
			t.Fatalf("re-encode failed: %v", werr)
		}
		fr2, rerr := ReadFrame(&out, 1<<20)
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		if fr2.ID != fr.ID || fr2.Op != fr.Op || fr2.Type != fr.Type ||
			fr2.Status != fr.Status || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzReader hardens the primitive decoder: arbitrary bytes through
// every accessor must never panic.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	e := NewBuffer(0)
	e.U8(1).U64(99).String("x").Bytes32([]byte{4, 5})
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewReader(data)
		_ = d.U8()
		_ = d.U16()
		_ = d.U32()
		_ = d.String()
		_ = d.Bytes32()
		_ = d.I64()
		_ = d.Bool()
		if d.Err() == nil && d.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}
