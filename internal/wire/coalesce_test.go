package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// collectFrames decodes every frame in buf.
func collectFrames(t *testing.T, buf *bytes.Buffer) []Frame {
	t.Helper()
	var out []Frame
	for buf.Len() > 0 {
		f, err := ReadFrame(buf, 0)
		if err != nil {
			t.Fatalf("decode frame %d: %v", len(out), err)
		}
		out = append(out, f)
	}
	return out
}

func TestCoalescedWriterSingleFrame(t *testing.T) {
	var buf bytes.Buffer
	var flushes, frames int
	cw := NewCoalescedWriter(&buf, func(f, b int) { flushes++; frames += f })
	in := Frame{Type: TypeRequest, ID: 7, Op: 3, Status: 0, Payload: []byte("solo")}
	if err := cw.WriteFrame(&in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got := collectFrames(t, &buf)
	if len(got) != 1 || got[0].ID != 7 || string(got[0].Payload) != "solo" {
		t.Fatalf("decoded %+v", got)
	}
	if flushes != 1 || frames != 1 {
		t.Fatalf("observer saw flushes=%d frames=%d", flushes, frames)
	}
}

// slowBuffer delays every Write so concurrent callers pile frames into
// the pending buffer — forcing multi-frame flushes deterministically.
type slowBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	delay time.Duration
}

func (w *slowBuffer) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// gateWriter blocks every Write until gate is closed.
type gateWriter struct {
	gate chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (w *gateWriter) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestCoalescedWriterQueuedFrameDoesNotWait: a frame written behind a
// flush that is blocked in Write returns at once, and the blocked
// flusher writes it — head and spliced tail, in order after its own
// frame — before it returns, firing the tail's release once.
func TestCoalescedWriterQueuedFrameDoesNotWait(t *testing.T) {
	w := &gateWriter{gate: make(chan struct{})}
	cw := NewCoalescedWriter(w, nil)
	flushed := make(chan error, 1)
	go func() { flushed <- cw.WriteFrame(&Frame{Type: TypeRequest, ID: 1, Payload: []byte("first")}) }()
	for _, busy := cw.Flushing(); !busy; _, busy = cw.Flushing() {
		time.Sleep(100 * time.Microsecond)
	}
	var released atomic.Int32
	queued := make(chan error, 1)
	go func() {
		f := Frame{Type: TypeResponse, ID: 2, Payload: []byte("head:")}
		queued <- cw.WriteFrameExt(&f, []byte("tail"), func() { released.Add(1) })
	}()
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("write behind a blocked flush: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(w.gate)
		t.Fatal("a write behind a blocked flush waited for it")
	}
	if n := released.Load(); n != 0 {
		t.Fatalf("tail released %d times before its flush", n)
	}
	close(w.gate)
	if err := <-flushed; err != nil {
		t.Fatalf("flusher: %v", err)
	}
	if n := released.Load(); n != 1 {
		t.Fatalf("tail released %d times, want 1", n)
	}
	got := collectFrames(t, &w.buf)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 || string(got[1].Payload) != "head:tail" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestCoalescedWriterConcurrentIntegrity(t *testing.T) {
	const goroutines, perG = 8, 50
	w := &slowBuffer{delay: 200 * time.Microsecond}
	var flushes, frames atomic.Int64
	var maxBatch atomic.Int64
	cw := NewCoalescedWriter(w, func(f, b int) {
		flushes.Add(1)
		frames.Add(int64(f))
		for {
			cur := maxBatch.Load()
			if int64(f) <= cur || maxBatch.CompareAndSwap(cur, int64(f)) {
				break
			}
		}
	})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				f := Frame{
					Type:    TypeRequest,
					ID:      uint64(g*perG + i),
					Op:      uint16(g),
					Payload: []byte(fmt.Sprintf("g%d-i%d", g, i)),
				}
				if err := cw.WriteFrame(&f); err != nil {
					t.Errorf("WriteFrame g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	got := collectFrames(t, &w.buf)
	if len(got) != goroutines*perG {
		t.Fatalf("decoded %d frames, want %d", len(got), goroutines*perG)
	}
	seen := make(map[uint64]string, len(got))
	for _, f := range got {
		seen[f.ID] = string(f.Payload)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			id := uint64(g*perG + i)
			if seen[id] != fmt.Sprintf("g%d-i%d", g, i) {
				t.Fatalf("frame %d payload %q", id, seen[id])
			}
		}
	}
	if frames.Load() != goroutines*perG {
		t.Fatalf("observer frames=%d, want %d", frames.Load(), goroutines*perG)
	}
	if maxBatch.Load() < 2 {
		t.Fatalf("no coalescing observed under a slow writer (max batch %d)", maxBatch.Load())
	}
	if flushes.Load() >= goroutines*perG {
		t.Fatalf("flushes=%d not amortized below frame count %d", flushes.Load(), goroutines*perG)
	}
}

// errWriter fails a configurable number of Writes, consuming nothing.
type errWriter struct {
	mu    sync.Mutex
	fails int
	buf   bytes.Buffer
}

func (w *errWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fails > 0 {
		w.fails--
		return 0, errors.New("injected write failure")
	}
	return w.buf.Write(p)
}

func TestCoalescedWriterCleanErrorNotSticky(t *testing.T) {
	w := &errWriter{fails: 1}
	cw := NewCoalescedWriter(w, nil)
	f := Frame{Type: TypeRequest, ID: 1, Payload: []byte("x")}
	if err := cw.WriteFrame(&f); err == nil {
		t.Fatal("want error from failing writer")
	}
	// Zero bytes reached the stream: framing is intact, the writer must
	// keep working.
	if err := cw.WriteFrame(&f); err != nil {
		t.Fatalf("writer stuck after clean failure: %v", err)
	}
	if got := collectFrames(t, &w.buf); len(got) != 1 {
		t.Fatalf("decoded %d frames, want 1", len(got))
	}
}

// partialWriter consumes half the batch, then fails — the framing
// corruption case.
type partialWriter struct{ wrote bytes.Buffer }

func (w *partialWriter) Write(p []byte) (int, error) {
	n := len(p) / 2
	w.wrote.Write(p[:n])
	return n, errors.New("injected mid-frame failure")
}

func TestCoalescedWriterPartialFlushBreaksStream(t *testing.T) {
	cw := NewCoalescedWriter(&partialWriter{}, nil)
	f := Frame{Type: TypeRequest, ID: 1, Payload: []byte("corruptible")}
	err := cw.WriteFrame(&f)
	if err == nil {
		t.Fatal("want error from partial write")
	}
	if errors.Is(err, ErrWriterBroken) {
		t.Fatal("the corrupting flush itself should carry the write error, not ErrWriterBroken")
	}
	// Every subsequent frame must be refused: a prefix of the previous
	// frame is on the wire and anything appended would be parsed as
	// garbage by the peer.
	if err := cw.WriteFrame(&f); !errors.Is(err, ErrWriterBroken) {
		t.Fatalf("after partial flush: err=%v, want ErrWriterBroken", err)
	}
}

// deadlineBuffer counts SetWriteDeadline calls.
type deadlineBuffer struct {
	slowBuffer
	deadlines atomic.Int64
}

func (w *deadlineBuffer) SetWriteDeadline(time.Time) error {
	w.deadlines.Add(1)
	return nil
}

// TestCoalescedWriterNeverArmsDeadline pins the deadline contract: the
// writer leaves the conn's write deadline to the conn's owner. Neither a
// solo flush nor a contended one (frames queued behind a slow flush) may
// touch SetWriteDeadline — on every conn type that is a timer armed and
// stopped per flush.
func TestCoalescedWriterNeverArmsDeadline(t *testing.T) {
	w := &deadlineBuffer{slowBuffer: slowBuffer{delay: 200 * time.Microsecond}}
	cw := NewCoalescedWriter(w, nil)
	f := Frame{Type: TypeRequest, ID: 1, Payload: []byte("d")}
	if err := cw.WriteFrame(&f); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFrameExt(&f, []byte("tail"), nil); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := Frame{Type: TypeRequest, ID: 2, Payload: []byte("q")}
			for i := 0; i < perG; i++ {
				if err := cw.WriteFrame(&f); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := w.deadlines.Load(); n != 0 {
		t.Fatalf("writer set the conn write deadline %d times, want never", n)
	}
	if got := collectFrames(t, &w.buf); len(got) != 2+goroutines*perG {
		t.Fatalf("decoded %d frames, want %d", len(got), 2+goroutines*perG)
	}
}

// TestCoalescedWriterSoloAllocs is the ceiling on the uncontended path:
// a caller that is its own flusher allocates nothing — no generation, no
// channel, no vectored-write header — with or without an external
// segment. The next feature that puts one back fails here, not in a
// benchmark.
func TestCoalescedWriterSoloAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	cw := NewCoalescedWriter(io.Discard, nil)
	f := Frame{Type: TypeResponse, ID: 1, Op: 2, Payload: make([]byte, 4096)}
	if n := testing.AllocsPerRun(200, func() {
		if err := cw.WriteFrame(&f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("solo WriteFrame: %v allocs/op, want 0", n)
	}
	head := Frame{Type: TypeResponse, ID: 1, Op: 2, Payload: make([]byte, 16)}
	ext := make([]byte, 4096)
	released := 0
	release := func() { released++ }
	if n := testing.AllocsPerRun(200, func() {
		if err := cw.WriteFrameExt(&head, ext, release); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("solo WriteFrameExt: %v allocs/op, want 0", n)
	}
	if released != 201 { // AllocsPerRun makes one warm-up call first
		t.Errorf("release fired %d times, want 201", released)
	}
}

// TestCoalescedWriterLoneWriterSequential checks the degenerate case: a
// single caller issuing frames back to back gets one flush per frame
// and unchanged bytes — the pre-coalescing wire format.
func TestCoalescedWriterLoneWriterSequential(t *testing.T) {
	var coalesced bytes.Buffer
	cw := NewCoalescedWriter(&coalesced, nil)
	var plain bytes.Buffer
	for i := 0; i < 10; i++ {
		f := Frame{Type: TypeResponse, ID: uint64(i), Op: 9, Payload: []byte{byte(i)}}
		if err := cw.WriteFrame(&f); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&plain, &f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(coalesced.Bytes(), plain.Bytes()) {
		t.Fatal("coalesced byte stream differs from plain WriteFrame stream")
	}
}

var _ io.Writer = (*slowBuffer)(nil)
