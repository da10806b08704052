package wire

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// TestReadFramePooledMatchesReadFrame decodes the same stream through
// both read paths and requires identical frames.
func TestReadFramePooledMatchesReadFrame(t *testing.T) {
	frames := []Frame{
		{Type: TypeRequest, ID: 1, Op: 7, Payload: []byte("hello")},
		{Type: TypeResponse, ID: 2, Op: 7, Status: 3, Payload: nil},
		{Type: TypeRequest, ID: 1 << 60, Op: 65535, Payload: bytes.Repeat([]byte{0xAB}, 100000)},
	}
	var stream bytes.Buffer
	for i := range frames {
		if err := WriteFrame(&stream, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	raw := append([]byte(nil), stream.Bytes()...)

	plain := bytes.NewReader(raw)
	pooled := NewFrameReader(bytes.NewReader(raw), 0)
	for i := range frames {
		a, err := ReadFrame(plain, 0)
		if err != nil {
			t.Fatalf("frame %d plain: %v", i, err)
		}
		b, lease, err := pooled.ReadFramePooled()
		if err != nil {
			t.Fatalf("frame %d pooled: %v", i, err)
		}
		if a.Type != b.Type || a.ID != b.ID || a.Op != b.Op || a.Status != b.Status ||
			!bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("frame %d: pooled decode diverges: %+v vs %+v", i, a, b)
		}
		lease.Release()
	}
}

// TestReadFramePooledErrors verifies every error path releases the lease
// (no panic, no deadlock under pool reuse) and reports the same error as
// the plain path.
func TestReadFramePooledErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short length", []byte{1, 2}},
		{"truncated header", []byte{16, 0, 0, 0, 0xCA}},
		{"bad magic", func() []byte {
			var b bytes.Buffer
			WriteFrame(&b, &Frame{Type: TypeRequest, ID: 1})
			d := b.Bytes()
			d[4] = 0x00
			return d
		}()},
		{"truncated payload", func() []byte {
			var b bytes.Buffer
			WriteFrame(&b, &Frame{Type: TypeRequest, ID: 1, Payload: []byte("abcdef")})
			return b.Bytes()[:b.Len()-3]
		}()},
		{"oversized", func() []byte {
			var b bytes.Buffer
			WriteFrame(&b, &Frame{Type: TypeRequest, ID: 1, Payload: make([]byte, 2048)})
			return b.Bytes()
		}()},
	}
	for _, tc := range cases {
		maxPayload := 0
		if tc.name == "oversized" {
			maxPayload = 1024
		}
		_, errPlain := ReadFrame(bytes.NewReader(tc.data), maxPayload)
		_, lease, errPooled := NewFrameReader(bytes.NewReader(tc.data), maxPayload).ReadFramePooled()
		if errPlain == nil || errPooled == nil {
			t.Errorf("%s: expected errors, got plain=%v pooled=%v", tc.name, errPlain, errPooled)
			continue
		}
		if lease != nil {
			t.Errorf("%s: lease must be nil on error", tc.name)
		}
		if errPlain.Error() != errPooled.Error() &&
			(errPlain != io.EOF || errPooled != io.EOF) {
			t.Errorf("%s: error divergence: plain=%v pooled=%v", tc.name, errPlain, errPooled)
		}
	}
}

// TestPooledRoundtripsConcurrent races many goroutines through the
// shared buffer pool — encode, pooled decode, verify, release — to shake
// out aliasing between leases. Run under -race in CI.
func TestPooledRoundtripsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 3000; i++ {
				// Payload contents derive from (w, i) so cross-goroutine
				// buffer reuse shows up as corruption.
				size := 1 + (i*17+w)%4096
				payload := bytes.Repeat([]byte{byte(w*31 + i)}, size)
				in := Frame{Type: TypeRequest, ID: uint64(i), Op: uint16(w), Payload: payload}
				buf.Reset()
				if err := WriteFrame(&buf, &in); err != nil {
					t.Errorf("w%d i%d write: %v", w, i, err)
					return
				}
				got, lease, err := NewFrameReader(&buf, 0).ReadFramePooled()
				if err != nil {
					t.Errorf("w%d i%d read: %v", w, i, err)
					return
				}
				if got.ID != in.ID || got.Op != in.Op || !bytes.Equal(got.Payload, payload) {
					t.Errorf("w%d i%d: frame corrupted through pool", w, i)
					lease.Release()
					return
				}
				lease.Release()
			}
		}(w)
	}
	wg.Wait()
}

// TestOversizedLeaseNotPooled checks that a giant frame's buffer is not
// returned to the pool (it would pin memory for the process lifetime).
func TestOversizedLeaseNotPooled(t *testing.T) {
	big := make([]byte, maxPooledBuf+1)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: TypeRequest, ID: 9, Payload: big}); err != nil {
		t.Fatal(err)
	}
	f, lease, err := NewFrameReader(&buf, maxPooledBuf*2).ReadFramePooled()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != len(big) {
		t.Fatalf("payload length %d, want %d", len(f.Payload), len(big))
	}
	lease.Release()
	// Whether or not the pool hands back the same *Buf, a fresh acquire
	// must never see a stale oversized backing array re-leased: the next
	// pooled read of a small frame gets a correctly sized view.
	buf.Reset()
	if err := WriteFrame(&buf, &Frame{Type: TypeRequest, ID: 10, Payload: []byte("tiny")}); err != nil {
		t.Fatal(err)
	}
	f2, lease2, err := NewFrameReader(&buf, 0).ReadFramePooled()
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Payload) != "tiny" {
		t.Fatalf("payload = %q, want tiny", f2.Payload)
	}
	lease2.Release()
}
