package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// opHold is a request gatedHandler holds in its continuation.
const opHold uint16 = 10

// gatedHandler answers every request inline except opHold, whose
// continuation signals held and then waits for release.
type gatedHandler struct {
	held    chan struct{}
	release chan struct{}
}

func (h *gatedHandler) Handle(op uint16, payload []byte) (uint16, []byte) {
	return StatusOK, payload
}

func (h *gatedHandler) Stage(op uint16, payload []byte) (LeasedResp, Continuation) {
	if op == opHold {
		return LeasedResp{}, h
	}
	return LeasedResp{Status: StatusOK, Head: payload}, nil
}

func (h *gatedHandler) Continue(_ uint16, payload []byte, _ time.Duration) LeasedResp {
	h.held <- struct{}{}
	<-h.release
	return LeasedResp{Status: StatusOK, Head: payload}
}

// TestInlineAnswerPassesHeldContinuation: a request held in its
// continuation does not delay one the connection's reader answers
// itself on the same connection — the inline answers overtake it.
func TestInlineAnswerPassesHeldContinuation(t *testing.T) {
	h := &gatedHandler{held: make(chan struct{}, 1), release: make(chan struct{})}
	network := NewInprocNetwork()
	srv := NewServer(h)
	lis, err := network.Listen("gated")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	conn, err := network.Dial("gated")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	t.Cleanup(func() { cli.Close() })
	ctx := context.Background()

	held := make(chan error, 1)
	go func() {
		resp, _, err := cli.CallTimeout(ctx, opHold, []byte("held"), time.Now(), 10*time.Second)
		if err == nil && string(resp) != "held" {
			err = fmt.Errorf("resp %q", resp)
		}
		held <- err
	}()
	<-h.held
	for i := 0; i < 10; i++ {
		resp, _, err := cli.CallTimeout(ctx, opEcho, []byte("inline"), time.Now(), time.Second)
		if err != nil || string(resp) != "inline" {
			t.Fatalf("inline call %d behind a held continuation: resp %q, err %v", i, resp, err)
		}
	}
	select {
	case err := <-held:
		t.Fatalf("held call returned before its release: %v", err)
	default:
	}
	close(h.release)
	if err := <-held; err != nil {
		t.Fatalf("held call: %v", err)
	}
}

// opBulk asks bulkHandler for its bulk reply.
const opBulk uint16 = 11

// bulkHandler answers every request inline: opBulk with the bulk bytes
// as a zero-copy tail, anything else with the length of its payload.
type bulkHandler struct{ bulk []byte }

func (h bulkHandler) Handle(op uint16, payload []byte) (uint16, []byte) {
	lr, _ := h.Stage(op, payload)
	return lr.Status, append(lr.Head, lr.Ext...)
}

func (h bulkHandler) Stage(op uint16, payload []byte) (LeasedResp, Continuation) {
	if op == opBulk {
		return LeasedResp{Status: StatusOK, Ext: h.bulk}, nil
	}
	return LeasedResp{Status: StatusOK, Head: []byte(fmt.Sprint(len(payload)))}, nil
}

// TestInlineReplyDuringLargeWrite: over TCP, callers sharing one Client
// mix reads the server answers inline with a reply of several MiB and
// writes that carry several MiB, so an inline reply is often on its way
// back while a large request is still being written — more than the
// socket buffers hold either way. Whoever writes on the client, and
// whatever the connection's reader on the server is writing, someone
// must keep reading each side, or both Writes block for good. No call
// has a deadline, so a stall shows as a hang, not as timeouts.
func TestInlineReplyDuringLargeWrite(t *testing.T) {
	const size = 8 << 20
	srv := NewServer(bulkHandler{bulk: make([]byte, size)})
	lis, err := TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	conn, err := TCPNetwork{}.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn)
	t.Cleanup(func() { cli.Close(); srv.Close() })

	const callers, rounds = 4, 12
	put := make([]byte, size)
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			for i := 0; i < rounds; i++ {
				op, payload := opBulk, []byte(nil)
				if (g+i)%2 == 1 {
					op, payload = opEcho, put
				}
				resp, _, err := cli.Call(context.Background(), op, payload)
				if err == nil && op == opBulk && len(resp) != size {
					err = fmt.Errorf("bulk reply of %d bytes, want %d", len(resp), size)
				}
				if err == nil && op == opEcho && string(resp) != fmt.Sprint(size) {
					err = fmt.Errorf("write acknowledged %q bytes, want %d", resp, size)
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %w", g, i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	stall := time.After(20 * time.Second) // the whole test takes well under a second
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-stall:
			t.Fatalf("connection stalled: %d of %d callers still blocked after 20 s", callers-g, callers)
		}
	}
}

// rawPair returns a Client on one end of a fresh connection over the
// named transport and the far end, for a test that plays the server by
// hand.
func rawPair(t *testing.T, transport string) (*Client, net.Conn) {
	t.Helper()
	var near, far net.Conn
	switch transport {
	case "inproc":
		near, far = NewBufferedPipe("raw")
	case "tcp":
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		if near, err = net.Dial("tcp", lis.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if far, err = lis.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	cli := NewClient(near)
	t.Cleanup(func() { cli.Close(); far.Close() })
	return cli, far
}

// readRequests forwards every request frame arriving on far.
func readRequests(far net.Conn) <-chan wire.Frame {
	reqs := make(chan wire.Frame, 64)
	go func() {
		defer close(reqs)
		for {
			f, err := wire.ReadFrame(far, 0)
			if err != nil {
				return
			}
			reqs <- f
		}
	}()
	return reqs
}

// echoFrame encodes the echo reply to req.
func echoFrame(req wire.Frame) []byte {
	req.Type = wire.TypeResponse
	return wire.AppendFrame(nil, &req)
}

// answer writes req's echo reply onto far.
func answer(t *testing.T, far net.Conn, req wire.Frame) {
	t.Helper()
	if _, err := far.Write(echoFrame(req)); err != nil {
		t.Fatal(err)
	}
}

// startReader issues a call nobody will answer, with a short deadline,
// and returns once it holds the reading role: no other call is pending.
func startReader(t *testing.T, cli *Client, timeout time.Duration) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := cli.CallTimeout(context.Background(), opDrop, nil, time.Now(), timeout)
		done <- err
	}()
	for reading := false; !reading; time.Sleep(100 * time.Microsecond) {
		cli.mu.Lock()
		reading = cli.reader != nil
		cli.mu.Unlock()
	}
	return done
}

var transports = []string{"inproc", "tcp"}

// TestReaderHandoffOutOfOrder: concurrent callers share one Client and
// their replies arrive out of order. The first caller holds the reading
// role and delivers the replies that arrive while it reads; its own
// deadline then passes with the rest unanswered, the role moves to a
// waiting caller, and every caller gets its own outcome — the reader
// ErrTimeout, every other caller its own reply.
func TestReaderHandoffOutOfOrder(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			cli, far := rawPair(t, transport)
			reqs := readRequests(far)
			reader := startReader(t, cli, 60*time.Millisecond)
			const n = 8
			type outcome struct {
				i    int
				resp []byte
				err  error
			}
			outcomes := make(chan outcome, n)
			for i := 0; i < n; i++ {
				go func(i int) {
					resp, _, err := cli.CallTimeout(context.Background(), opEcho, []byte(fmt.Sprintf("call-%d", i)), time.Now(), 10*time.Second)
					outcomes <- outcome{i, resp, err}
				}(i)
			}
			var echoes []wire.Frame
			for len(echoes) < n {
				if f := <-reqs; f.Op == opEcho {
					echoes = append(echoes, f)
				}
			}
			// Half the replies now, newest first: the reader delivers them.
			for i := n - 1; i >= n/2; i-- {
				answer(t, far, echoes[i])
			}
			if err := <-reader; !errors.Is(err, ErrTimeout) {
				t.Fatalf("reading caller: err = %v, want ErrTimeout", err)
			}
			// The rest after the reader has gone, in yet another order.
			for i := 0; i < n/2; i++ {
				answer(t, far, echoes[(3*i)%(n/2)])
			}
			for k := 0; k < n; k++ {
				o := <-outcomes
				if want := fmt.Sprintf("call-%d", o.i); o.err != nil || string(o.resp) != want {
					t.Errorf("caller %d: resp %q, err %v; want %q", o.i, o.resp, o.err, want)
				}
			}
		})
	}
}

// TestHandoffReassemblesSplitFrame: a reply arrives in two Writes,
// and the reading caller's deadline expires between them, after it has
// read the first. The waiting caller the role passes to reassembles the
// frame from the part the first reader left behind.
func TestHandoffReassemblesSplitFrame(t *testing.T) {
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			cli, far := rawPair(t, transport)
			reqs := readRequests(far)
			reader := startReader(t, cli, 40*time.Millisecond)
			waiter := make(chan error, 1)
			go func() {
				resp, _, err := cli.CallTimeout(context.Background(), opEcho, []byte("reassembled across readers"), time.Now(), 10*time.Second)
				if err == nil && string(resp) != "reassembled across readers" {
					err = fmt.Errorf("resp %q", resp)
				}
				waiter <- err
			}()
			var echo wire.Frame
			for echo.Op != opEcho {
				echo = <-reqs
			}
			b := echoFrame(echo)
			first := len(b) / 2 // the header and part of the payload
			if _, err := far.Write(b[:first]); err != nil {
				t.Fatal(err)
			}
			if err := <-reader; !errors.Is(err, ErrTimeout) {
				t.Fatalf("reading caller: err = %v, want ErrTimeout", err)
			}
			if _, err := far.Write(b[first:]); err != nil {
				t.Fatal(err)
			}
			if err := <-waiter; err != nil {
				t.Fatalf("waiting caller: %v", err)
			}
		})
	}
}
