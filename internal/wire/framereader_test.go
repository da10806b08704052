package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

// interruptedReader serves its chunks one Read at a time and fails the
// Read after the first chunk the way a passed read deadline does.
type interruptedReader struct {
	chunks [][]byte
	reads  int
}

func (r *interruptedReader) Read(b []byte) (int, error) {
	r.reads++
	if r.reads == 2 {
		return 0, os.ErrDeadlineExceeded
	}
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(b, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestFrameReaderResumesAfterInterrupt: a stream of two frames, cut at
// every byte offset, with a deadline interrupt right after the first
// piece. The interrupted ReadFrame reports the deadline, and the next
// calls return both frames intact — a partly read header or payload is
// kept, never dropped or re-read.
func TestFrameReaderResumesAfterInterrupt(t *testing.T) {
	frames := []Frame{
		{Type: TypeResponse, ID: 7, Op: 2, Status: 1, Payload: bytes.Repeat([]byte("ab"), 3000)},
		{Type: TypeResponse, ID: 8, Op: 2, Payload: []byte("second")},
	}
	var stream []byte
	for i := range frames {
		stream = AppendFrame(stream, &frames[i])
	}
	for cut := 1; cut < len(stream); cut++ {
		fr := NewFrameReader(&interruptedReader{chunks: [][]byte{stream[:cut], stream[cut:]}}, 0)
		var got []Frame
		interrupted := false
		for len(got) < len(frames) {
			f, err := fr.ReadFrame()
			if errors.Is(err, os.ErrDeadlineExceeded) && !interrupted {
				interrupted = true
				continue
			}
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			got = append(got, f)
		}
		for i, f := range got {
			w := frames[i]
			if f.Type != w.Type || f.ID != w.ID || f.Op != w.Op || f.Status != w.Status || !bytes.Equal(f.Payload, w.Payload) {
				t.Fatalf("cut %d: frame %d = %+v (%d bytes), want id %d (%d bytes)", cut, i, f, len(f.Payload), w.ID, len(w.Payload))
			}
		}
		if _, err := fr.ReadFrame(); err != io.EOF {
			t.Fatalf("cut %d: after the last frame: %v, want io.EOF", cut, err)
		}
	}
}

// TestFrameReaderRejectsBadMagic: framing errors are permanent.
func TestFrameReaderRejectsBadMagic(t *testing.T) {
	b := AppendFrame(nil, &Frame{Type: TypeRequest, ID: 1, Payload: []byte("x")})
	b[4] ^= 0xFF
	if _, err := NewFrameReader(bytes.NewReader(b), 0).ReadFrame(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}
