package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCoalescedCallsAmortizeWrites: under concurrent callers, request
// frames leave in fewer socket writes than calls — the client-side
// coalescing metric moves.
func TestCoalescedCallsAmortizeWrites(t *testing.T) {
	_, cli := startPair(t, NewInprocNetwork(), "coalesce")
	m := metrics()
	frames0, flushes0 := m.clientFrames.Load(), m.clientFlushes.Load()

	const callers, perC = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				payload := []byte(fmt.Sprintf("c%d-%d", g, i))
				resp, status, err := cli.Call(context.Background(), opEcho, payload)
				if err != nil || status != StatusOK {
					t.Errorf("call: status=%d err=%v", status, err)
					return
				}
				if string(resp) != "echo:"+string(payload) {
					t.Errorf("resp %q", resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	frames := m.clientFrames.Load() - frames0
	flushes := m.clientFlushes.Load() - flushes0
	if frames < callers*perC {
		t.Fatalf("clientFrames moved by %d, want >= %d", frames, callers*perC)
	}
	if flushes > frames {
		t.Fatalf("flushes=%d exceeds frames=%d", flushes, frames)
	}
}

// blockableHandler parks requests until released, so a controlled number
// of handler goroutines pile up per connection.
type blockableHandler struct {
	inflight atomic.Int64
	peak     atomic.Int64
	release  chan struct{}
}

func (h *blockableHandler) Handle(op uint16, payload []byte) (uint16, []byte) {
	cur := h.inflight.Add(1)
	for {
		p := h.peak.Load()
		if cur <= p || h.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	<-h.release
	h.inflight.Add(-1)
	return StatusOK, payload
}

// stagedBlockable is blockableHandler split in two: nothing is answered
// inline, every request parks in its continuation.
type stagedBlockable struct{ *blockableHandler }

func (h stagedBlockable) Stage(uint16, []byte) (LeasedResp, Continuation) { return LeasedResp{}, h }

func (h stagedBlockable) Continue(op uint16, payload []byte, _ time.Duration) LeasedResp {
	status, resp := h.Handle(op, payload)
	return LeasedResp{Status: status, Head: resp}
}

// TestServeConnBoundsHandlerFanout: more concurrent requests than
// MaxConnConcurrency on one conn must not run more than
// MaxConnConcurrency continuations at once — a plain Handler's requests
// and a StagedHandler's continuations alike; the overflow queues in the
// connection's reader and completes once continuations drain.
func TestServeConnBoundsHandlerFanout(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		h := &blockableHandler{release: make(chan struct{})}
		testFanoutBound(t, h, h)
	})
	t.Run("staged", func(t *testing.T) {
		h := &blockableHandler{release: make(chan struct{})}
		testFanoutBound(t, stagedBlockable{h}, h)
	})
}

func testFanoutBound(t *testing.T, handler Handler, h *blockableHandler) {
	network := NewInprocNetwork()
	srv := NewServer(handler)
	lis, err := network.Listen("bound")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	conn, err := network.Dial("bound")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	t.Cleanup(func() { cli.Close(); srv.Close() })

	const total = MaxConnConcurrency + 50
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, err := cli.Call(context.Background(), opEcho, []byte("x"))
			if err != nil || status != StatusOK {
				errs <- fmt.Errorf("status=%d err=%v", status, err)
			}
		}()
	}

	// Wait until the semaphore is saturated, then check the bound held.
	deadline := time.Now().Add(2 * time.Second)
	for h.inflight.Load() < MaxConnConcurrency {
		if time.Now().After(deadline) {
			t.Fatalf("never saturated: inflight=%d", h.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // give an unbounded server time to overshoot
	if peak := h.peak.Load(); peak > MaxConnConcurrency {
		t.Fatalf("handler fan-out peaked at %d, bound is %d", peak, MaxConnConcurrency)
	}
	close(h.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRespWriteErrorCounted: a response the server cannot deliver (the
// client hung up first) moves the resp-write-error counter instead of
// vanishing into a discarded error.
func TestRespWriteErrorCounted(t *testing.T) {
	network := NewInprocNetwork()
	release := make(chan struct{})
	srv := NewServer(HandlerFunc(func(op uint16, payload []byte) (uint16, []byte) {
		<-release
		return StatusOK, payload
	}))
	lis, err := network.Listen("drop")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	conn, err := network.Dial("drop")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)

	m := metrics()
	dropped0 := m.respDropped.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, _ = cli.Call(ctx, opEcho, []byte("x")) // times out while the handler is parked
	cli.Close()                                  // conn gone before the response is written
	close(release)

	deadline := time.Now().Add(2 * time.Second)
	for m.respDropped.Load() == dropped0 {
		if time.Now().After(deadline) {
			t.Fatal("dropped response write never counted")
		}
		time.Sleep(time.Millisecond)
	}
}
