package rpc

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
)

// opDrop is a request selectiveServer reads and never answers.
const opDrop uint16 = 9

// lateSlack is how long after its deadline a call may return. Expiry is
// one timer wake-up plus a channel send; the slack is for a loaded
// two-core box running other packages' tests, not for the mechanism.
const lateSlack = 25 * time.Millisecond

// selectiveServer is a bare peer on the far end of an in-process pipe:
// it echoes opEcho and swallows everything else, so calls that must time
// out and calls that must complete can share one connection.
func selectiveServer(t *testing.T) *Client {
	t.Helper()
	near, far := NewBufferedPipe("selective")
	go func() {
		for {
			f, err := wire.ReadFrame(far, 0)
			if err != nil {
				return
			}
			if f.Op != opEcho {
				continue
			}
			f.Type = wire.TypeResponse
			if wire.WriteFrame(far, &f) != nil {
				return
			}
		}
	}()
	cli := NewClient(near)
	t.Cleanup(func() { cli.Close(); far.Close() })
	return cli
}

// TestCallTimeoutExpiresAtDeadline: a call nobody answers returns
// ErrTimeout no earlier than its deadline and promptly after it, and
// the connection stays usable.
func TestCallTimeoutExpiresAtDeadline(t *testing.T) {
	cli := selectiveServer(t)
	const timeout = 30 * time.Millisecond
	start := time.Now()
	_, _, err := cli.CallTimeout(context.Background(), opDrop, []byte("x"), start, timeout)
	took := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took < timeout {
		t.Errorf("returned after %v, before its %v deadline", took, timeout)
	}
	if took > timeout+lateSlack {
		t.Errorf("returned %v after its deadline", took-timeout)
	}
	resp, _, err := cli.CallTimeout(context.Background(), opEcho, []byte("back"), time.Now(), time.Second)
	if err != nil || string(resp) != "back" {
		t.Fatalf("call after a timeout: resp=%q err=%v", resp, err)
	}
}

// TestDeadlineTableMixedDeadlines: a thousand unanswered calls in five
// deadline classes, registered in an order unrelated to their deadlines,
// all share one timer. Each must expire at its own deadline — so the
// classes finish in deadline order — while answered calls on the same
// connection keep completing throughout.
func TestDeadlineTableMixedDeadlines(t *testing.T) {
	cli := selectiveServer(t)
	const (
		calls   = 1000
		classes = 5
		step    = 40 * time.Millisecond
	)
	ctx := context.Background()
	start := time.Now()
	took := make([]time.Duration, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			timeout := time.Duration(1+i%classes) * step
			_, _, err := cli.CallTimeout(ctx, opDrop, nil, start, timeout)
			took[i] = time.Since(start)
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("call %d: err = %v, want ErrTimeout", i, err)
			}
		}(i)
	}
	stop := make(chan struct{})
	echoed := make(chan int)
	go func() {
		n := 0
		defer func() { echoed <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := cli.CallTimeout(ctx, opEcho, []byte("e"), time.Now(), 10*time.Second); err != nil {
				t.Errorf("answered call %d failed during expiries: %v", n, err)
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-echoed; n == 0 {
		t.Error("no answered call completed while the table was expiring others")
	}

	first := make([]time.Duration, classes)
	last := make([]time.Duration, classes)
	for i, d := range took {
		k := i % classes
		deadline := time.Duration(1+k) * step
		if d < deadline {
			t.Fatalf("call %d returned after %v, before its %v deadline", i, d, deadline)
		}
		if d > deadline+lateSlack {
			t.Fatalf("call %d returned %v after its deadline", i, d-deadline)
		}
		if first[k] == 0 || d < first[k] {
			first[k] = d
		}
		last[k] = max(last[k], d)
	}
	for k := 1; k < classes; k++ {
		if last[k-1] > first[k] {
			t.Errorf("class %d was still expiring (%v) after class %d began (%v)", k-1, last[k-1], k, first[k])
		}
	}
}

// TestEarlierDeadlineRearms: the timer is armed for a far deadline when
// a call with a near one arrives; it must be pulled in, not left to fire
// at the far one.
func TestEarlierDeadlineRearms(t *testing.T) {
	cli := selectiveServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	farDone := make(chan error, 1)
	go func() {
		_, _, err := cli.CallTimeout(ctx, opDrop, nil, time.Now(), time.Minute)
		farDone <- err
	}()
	// Wait for the far call to be registered, which arms the timer.
	for armed := false; !armed; time.Sleep(time.Millisecond) {
		cli.mu.Lock()
		armed = !cli.armed.IsZero()
		cli.mu.Unlock()
	}
	const timeout = 30 * time.Millisecond
	start := time.Now()
	_, _, err := cli.CallTimeout(context.Background(), opDrop, nil, start, timeout)
	took := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("near call: err = %v, want ErrTimeout", err)
	}
	if took < timeout || took > timeout+lateSlack {
		t.Errorf("near call returned after %v, want %v", took, timeout)
	}
	// The far call is untouched by the near one's expiry, and a cancelled
	// ctx is reported as such — never as a timeout.
	select {
	case err := <-farDone:
		t.Fatalf("far call ended early: %v", err)
	default:
	}
	cancel()
	if err := <-farDone; !errors.Is(err, context.Canceled) || errors.Is(err, ErrTimeout) {
		t.Fatalf("cancelled call: err = %v, want context.Canceled", err)
	}
}

// stalledConn is a connection whose peer has stopped reading: Write
// blocks until a write deadline in the past is set, then fails the way
// a socket does. Reads come from an idle in-process pipe.
type stalledConn struct {
	net.Conn
	once    sync.Once
	expired chan struct{}
}

func (c *stalledConn) Write([]byte) (int, error) {
	<-c.expired
	return 0, os.ErrDeadlineExceeded
}

func (c *stalledConn) SetWriteDeadline(t time.Time) error {
	if !t.IsZero() && !t.After(time.Now()) {
		c.once.Do(func() { close(c.expired) })
	}
	return nil
}

// TestStuckWriteTimesOut: a request blocked in Write still comes back
// with ErrTimeout at its deadline (plus the two looks that tell a
// blocked Write from a busy writer), so does one queued behind it, and
// the connection must then fail later calls at once instead of letting
// them queue behind the stall.
//
// The order in expire matters: it fails the client before it releases
// the blocked Write with a past write deadline. Released first, a
// stalled caller that came back and called again in between found the
// client healthy, became the flusher of a new Write on the same
// deadline and got ErrTimeout instead of ErrClosed — why this test
// failed about one run in ten on a loaded machine.
func TestStuckWriteTimesOut(t *testing.T) {
	near, far := NewBufferedPipe("stalled")
	defer far.Close()
	cli := NewClient(&stalledConn{Conn: near, expired: make(chan struct{})})
	defer cli.Close()

	const timeout = 50 * time.Millisecond
	start := time.Now()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ { // one becomes the flusher, the other queues behind it
		go func() {
			_, _, err := cli.CallTimeout(context.Background(), opEcho, []byte("x"), start, timeout)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrTimeout) {
			t.Errorf("stalled call: err = %v, want ErrTimeout", err)
		}
	}
	if took := time.Since(start); took < timeout || took > timeout+stuckGrace+lateSlack {
		t.Errorf("stalled calls returned after %v, want %v", took, timeout)
	}
	start = time.Now()
	_, _, err := cli.CallTimeout(context.Background(), opEcho, []byte("next"), start, 10*time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Errorf("call after the stall: err = %v, want ErrClosed", err)
	}
	if took := time.Since(start); took > lateSlack {
		t.Errorf("call after the stall took %v, want an immediate failure", took)
	}
	if cli.Err() == nil {
		t.Error("connection not marked failed after a write blocked past a deadline")
	}
}

// TestCloseLeavesNothingBehind: the Client has no goroutine of its own,
// so all Close must end is what its callers hold. The pending call here
// is the one reading the connection: Close fails it — the closed conn
// ends its blocked Read — leaves nobody holding the reading role, stops
// the expiry timer, and no goroutine is left behind.
func TestCloseLeavesNothingBehind(t *testing.T) {
	testutil.CheckGoroutines(t)
	cli := selectiveServer(t)
	if _, _, err := cli.CallTimeout(context.Background(), opEcho, nil, time.Now(), time.Minute); err != nil {
		t.Fatal(err)
	}
	pending := make(chan error, 1)
	go func() {
		_, _, err := cli.CallTimeout(context.Background(), opDrop, nil, time.Now(), time.Minute)
		pending <- err
	}()
	for reading := false; !reading; time.Sleep(time.Millisecond) {
		cli.mu.Lock()
		reading = cli.reader != nil
		cli.mu.Unlock()
	}
	cli.Close()
	if err := <-pending; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending call after Close: err = %v, want ErrClosed", err)
	}
	cli.mu.Lock()
	defer cli.mu.Unlock()
	if cli.reader != nil || len(cli.pending) != 0 {
		t.Errorf("after Close: reader %p, %d calls pending; want none", cli.reader, len(cli.pending))
	}
	if cli.timer == nil {
		t.Fatal("no expiry timer was ever armed")
	}
	if cli.timer.Stop() {
		t.Error("expiry timer still armed after Close")
	}
}

// TestRoundtripAllocs is the ceiling on the steady-state round trip over
// the in-process pipe with a 4 KiB reply, counted across both ends: the
// reply payload the caller keeps and the goroutine closure of the plain
// Handler's whole continuation, with telemetry's histogram observes on
// the path. A timer, a derived context, a channel per call, or one
// stray allocation in telemetry does not fit under it.
func TestRoundtripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	body := make([]byte, 4096)
	network := NewInprocNetwork()
	lis, err := network.Listen("allocs")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(HandlerFunc(func(uint16, []byte) (uint16, []byte) { return StatusOK, body }))
	go srv.Serve(lis)
	defer srv.Close()
	conn, err := network.Dial("allocs")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	defer cli.Close()
	ctx := context.Background()
	req := make([]byte, 64)
	for name, call := range map[string]func() error{
		"Call":        func() error { _, _, err := cli.Call(ctx, 1, req); return err },
		"CallTimeout": func() error { _, _, err := cli.CallTimeout(ctx, 1, req, time.Now(), 10*time.Second); return err },
	} {
		allocs := testing.AllocsPerRun(500, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: %v allocs per round trip, want <= 2", name, allocs)
		}
	}
}

// TestPipeDeadlineRearmRace: a deadline timer that fired just as the
// deadline was cleared or re-armed must not expire the new setting.
// The loop arms 1 µs deadlines — so the callback is usually already
// running and waiting for the half's mutex — and clears them at once;
// a cleared deadline may never fail a Write or leave a Read expired.
func TestPipeDeadlineRearmRace(t *testing.T) {
	near, far := NewBufferedPipe("rearm")
	defer near.Close()
	defer far.Close()
	go func() { // keeps the half's mutex contended, and the queue short
		buf := make([]byte, 4096)
		for {
			if _, err := far.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		near.SetWriteDeadline(time.Now().Add(time.Microsecond))
		near.SetReadDeadline(time.Now().Add(time.Microsecond))
		near.SetWriteDeadline(time.Now().Add(time.Hour))
		near.SetReadDeadline(time.Time{})
		if _, err := near.Write([]byte{1}); err != nil {
			t.Fatalf("iteration %d: write under a far deadline: %v", i, err)
		}
	}
	near.SetWriteDeadline(time.Time{})
	time.Sleep(5 * time.Millisecond) // any callback still in flight has run by now
	if _, err := near.Write([]byte{1}); err != nil {
		t.Fatalf("write after the deadline was cleared: %v", err)
	}
	p := near.(*bufferedPipe)
	p.rb.mu.Lock()
	defer p.rb.mu.Unlock()
	if p.rb.rdl.expired {
		t.Fatal("cleared read deadline expired")
	}
}
