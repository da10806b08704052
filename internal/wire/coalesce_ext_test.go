package wire

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteFrameExtWireEquivalence(t *testing.T) {
	// An ext frame must produce exactly the bytes of a plain frame whose
	// payload is head||ext — the peer cannot tell the difference.
	head, ext := []byte{1, 2, 3}, []byte("external-tail")
	var got bytes.Buffer
	cw := NewCoalescedWriter(&got, nil)
	released := 0
	f := Frame{Type: TypeResponse, ID: 42, Op: 2, Status: 0, Payload: head}
	if err := cw.WriteFrameExt(&f, ext, func() { released++ }); err != nil {
		t.Fatalf("WriteFrameExt: %v", err)
	}
	if released != 1 {
		t.Fatalf("release fired %d times, want 1", released)
	}
	var want bytes.Buffer
	plain := Frame{Type: TypeResponse, ID: 42, Op: 2, Status: 0, Payload: append(append([]byte(nil), head...), ext...)}
	if err := WriteFrame(&want, &plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("ext frame bytes differ from plain frame:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}
}

func TestWriteFrameExtNilExt(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCoalescedWriter(&buf, nil)
	released := 0
	f := Frame{Type: TypeResponse, ID: 1, Payload: []byte("head-only")}
	if err := cw.WriteFrameExt(&f, nil, func() { released++ }); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("release fired %d times, want 1", released)
	}
	got := collectFrames(t, &buf)
	if len(got) != 1 || string(got[0].Payload) != "head-only" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestWriteFrameExtConcurrentMix(t *testing.T) {
	// Plain and ext frames interleaved from many goroutines through a
	// slow writer (forcing multi-frame batches): every frame must decode
	// with its spliced payload intact and every release must fire.
	const goroutines, perG = 8, 40
	w := &slowBuffer{delay: 200 * time.Microsecond}
	cw := NewCoalescedWriter(w, nil)
	var releases atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := uint64(g*perG + i)
				body := fmt.Sprintf("g%d-i%d", g, i)
				if i%2 == 0 {
					f := Frame{Type: TypeResponse, ID: id, Payload: []byte("H:")}
					if err := cw.WriteFrameExt(&f, []byte(body), func() { releases.Add(1) }); err != nil {
						t.Errorf("ext write %d: %v", id, err)
						return
					}
				} else {
					f := Frame{Type: TypeResponse, ID: id, Payload: []byte("H:" + body)}
					if err := cw.WriteFrame(&f); err != nil {
						t.Errorf("plain write %d: %v", id, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	got := collectFrames(t, &w.buf)
	if len(got) != goroutines*perG {
		t.Fatalf("decoded %d frames, want %d", len(got), goroutines*perG)
	}
	for _, f := range got {
		g, i := int(f.ID)/perG, int(f.ID)%perG
		want := fmt.Sprintf("H:g%d-i%d", g, i)
		if string(f.Payload) != want {
			t.Fatalf("frame %d payload %q, want %q", f.ID, f.Payload, want)
		}
	}
	if releases.Load() != goroutines*perG/2 {
		t.Fatalf("releases=%d, want %d", releases.Load(), goroutines*perG/2)
	}
}

func TestWriteFrameExtReleasedOnCleanError(t *testing.T) {
	w := &errWriter{fails: 1}
	cw := NewCoalescedWriter(w, nil)
	released := 0
	f := Frame{Type: TypeResponse, ID: 1, Payload: []byte("h")}
	if err := cw.WriteFrameExt(&f, []byte("x"), func() { released++ }); err == nil {
		t.Fatal("want error from failing writer")
	}
	if released != 1 {
		t.Fatalf("release fired %d times on clean error, want 1", released)
	}
	// Clean failure (nothing consumed) must not latch the writer.
	if err := cw.WriteFrameExt(&f, []byte("y"), func() { released++ }); err != nil {
		t.Fatalf("writer stuck after clean failure: %v", err)
	}
	if released != 2 {
		t.Fatalf("release fired %d times total, want 2", released)
	}
}

func TestWriteFrameExtReleasedOnBrokenWriter(t *testing.T) {
	cw := NewCoalescedWriter(&partialWriter{}, nil)
	f := Frame{Type: TypeResponse, ID: 1, Payload: []byte("corruptible")}
	released := 0
	if err := cw.WriteFrameExt(&f, []byte("tail"), func() { released++ }); err == nil {
		t.Fatal("want error from partial write")
	}
	if released != 1 {
		t.Fatalf("release fired %d times after partial flush, want 1", released)
	}
	// The writer is now broken: further ext writes must refuse AND still
	// consume their release — the lease must never leak.
	err := cw.WriteFrameExt(&f, []byte("tail2"), func() { released++ })
	if !errors.Is(err, ErrWriterBroken) {
		t.Fatalf("err=%v, want ErrWriterBroken", err)
	}
	if released != 2 {
		t.Fatalf("release fired %d times total, want 2", released)
	}
}
