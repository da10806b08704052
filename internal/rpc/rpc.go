// Package rpc is the request/response transport of the FT-Cache
// reproduction — the stdlib-only stand-in for the Mercury HPC RPC
// framework the paper's C++ artifact used.
//
// It provides:
//
//   - Server: a framed-message server dispatching requests to a Handler,
//     with an "unresponsive" switch used by the failure-injection harness
//     to emulate a node that is up at the TCP level but no longer answers
//     (the network-timeout failure mode §III classifies as node failure).
//   - Client: a multiplexing client whose calls carry deadlines as a
//     column of its pending-call table, expired by one timer per
//     connection. A deadline expiry surfaces as ErrTimeout, the signal
//     the HVAC client's timeout-counting failure detector consumes.
//   - Network interfaces over TCP and an in-process pipe network so whole
//     clusters can run inside one test binary.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// StatusOK is the conventional success status; applications define their
// own non-zero statuses.
const StatusOK uint16 = 0

// Errors surfaced by Client.Call.
var (
	// ErrTimeout reports that the call's deadline passed before a
	// response arrived. The connection stays usable (unless the request
	// itself could not be written in that time); a late response is
	// discarded.
	ErrTimeout = errors.New("rpc: call timed out")
	// ErrClosed reports that the connection failed or was closed.
	ErrClosed = errors.New("rpc: connection closed")
)

// Handler processes one request and returns a status and response
// payload. Handlers run concurrently; implementations must be
// goroutine-safe.
//
// Buffer lifetime: payload aliases a pooled receive buffer that is
// reused after the response has been written. A handler may slice it and
// may return a resp that aliases it, but it must copy anything it
// retains beyond its own return (e.g. bytes stored into a cache).
type Handler interface {
	Handle(op uint16, payload []byte) (status uint16, resp []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(op uint16, payload []byte) (uint16, []byte)

// Handle implements Handler.
func (f HandlerFunc) Handle(op uint16, payload []byte) (uint16, []byte) {
	return f(op, payload)
}

// WaitHandler is an optional extension a Handler may implement to
// learn how long a request sat in the per-connection fan-out queue
// (the serveConn concurrency semaphore) before its goroutine started.
// Request tracing attributes that wait to the "queue" component of
// p99; a plain Handler never sees it. connWait is zero when the
// semaphore had a free slot (the common case — measured without a
// clock read).
type WaitHandler interface {
	HandleWait(op uint16, payload []byte, connWait time.Duration) (status uint16, resp []byte)
}

// LeasedResp is a response whose payload tail is a zero-copy lease:
// the wire payload is Head||Ext, where Head is copied into the shared
// flush buffer as usual and Ext is spliced into the flush directly
// from memory the handler still owns. Release (which may be nil when
// there is no lease) fires exactly once, after the flush attempt
// carrying the response completes — that is the moment the handler's
// ownership of Ext ends. The RAM-tier read path uses this to serve
// cache hits straight out of pooled tier buffers without a copy.
type LeasedResp struct {
	Status  uint16
	Head    []byte
	Ext     []byte
	Release func()
}

// LeasedHandler is the optional Handler extension for zero-copy leased
// responses. When implemented, the server dispatches every request
// through HandleLeased instead of Handle/HandleWait. Implementations
// must not panic between acquiring a lease and returning it in the
// LeasedResp — a panic unwinds past the server's recovery without the
// Release ever reaching the writer, leaking the lease.
type LeasedHandler interface {
	HandleLeased(op uint16, payload []byte, connWait time.Duration) LeasedResp
}

// Server accepts framed-RPC connections and dispatches requests.
type Server struct {
	handler Handler

	mu           sync.Mutex
	lis          net.Listener
	conns        map[net.Conn]struct{}
	closed       bool
	unresponsive atomic.Bool
	wg           sync.WaitGroup
}

// NewServer creates a Server dispatching to handler.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler, conns: make(map[net.Conn]struct{})}
}

// SetUnresponsive toggles fault-injection mode: while set, the server
// keeps reading requests but never replies, so clients observe timeouts —
// exactly how a node behind a failed switch appears to its peers.
func (s *Server) SetUnresponsive(v bool) { s.unresponsive.Store(v) }

// Unresponsive reports whether fault-injection mode is active.
func (s *Server) Unresponsive() bool { return s.unresponsive.Load() }

// Serve accepts connections on lis until Close. It returns after the
// listener fails (nil after Close).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// MaxConnConcurrency bounds the per-connection handler fan-out: at most
// this many request goroutines run per conn; past the bound the read
// loop itself blocks, so a write burst turns into TCP backpressure the
// sender feels instead of an unbounded goroutine pile the admission
// controller never saw.
const MaxConnConcurrency = 256

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	m := metrics()
	// Responses from concurrent handlers group-commit: whoever finishes
	// while another response is mid-write parks its frame in the shared
	// buffer, and one Write flushes them all (see wire.CoalescedWriter).
	cw := wire.NewCoalescedWriter(conn, serverFlushObserver(m))
	lh, _ := s.handler.(LeasedHandler)
	sem := make(chan struct{}, MaxConnConcurrency)
	for {
		// The request body is leased from the wire buffer pool, so the
		// steady-state receive path allocates nothing per frame. The lease
		// is released once the handler has run and its response (which may
		// alias the request payload) has been written.
		f, lease, err := wire.ReadFramePooled(conn, 0)
		if err != nil {
			return
		}
		if f.Type != wire.TypeRequest || s.unresponsive.Load() {
			// Non-requests are ignored; in fault-injection mode requests
			// are swallowed so the client observes a timeout.
			lease.Release()
			continue
		}
		req := f
		// Acquire a fan-out slot, timing the wait only when the fast
		// path misses: the try-send costs no clock read, so an idle
		// semaphore (the steady state) adds nothing to the hot path.
		var connWait time.Duration
		select {
		case sem <- struct{}{}:
		default:
			t0 := time.Now()
			sem <- struct{}{}
			connWait = time.Since(t0)
		}
		go func() {
			defer func() { <-sem }()
			defer lease.Release()
			if lh != nil {
				// Leased-response path: the handler may return a payload
				// tail it still owns; the coalescing writer splices it
				// into the flush and fires Release once the bytes are on
				// the wire (or the flush is abandoned) — the lease
				// outlives this goroutine.
				lr := s.safeHandleLeased(lh, req.Op, req.Payload, connWait)
				if s.unresponsive.Load() {
					if lr.Release != nil {
						lr.Release()
					}
					return
				}
				out := wire.Frame{
					Type:    wire.TypeResponse,
					ID:      req.ID,
					Op:      req.Op,
					Status:  lr.Status,
					Payload: lr.Head,
				}
				var werr error
				if lr.Ext != nil || lr.Release != nil {
					werr = cw.WriteFrameExt(&out, lr.Ext, lr.Release)
				} else {
					werr = cw.WriteFrame(&out)
				}
				if werr != nil {
					m.respDropped.Inc()
				}
				return
			}
			status, resp := s.safeHandle(req.Op, req.Payload, connWait)
			if s.unresponsive.Load() {
				return // became unresponsive while handling
			}
			out := wire.Frame{
				Type:    wire.TypeResponse,
				ID:      req.ID,
				Op:      req.Op,
				Status:  status,
				Payload: resp,
			}
			if werr := cw.WriteFrame(&out); werr != nil {
				// The conn failure also surfaces on the next read; the
				// counter records that a computed response was dropped —
				// historically this was a silent `_ =`.
				m.respDropped.Inc()
			}
		}()
	}
}

// StatusPanic is returned to the client when a handler panics: a daemon
// serving a thousand-node job must not die because one request tripped a
// bug — the client sees an error status and the failure stays scoped to
// that request.
const StatusPanic uint16 = 0xFFFF

func (s *Server) safeHandle(op uint16, payload []byte, connWait time.Duration) (status uint16, resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			status = StatusPanic
			resp = []byte(fmt.Sprintf("handler panic: %v", r))
		}
	}()
	if wh, ok := s.handler.(WaitHandler); ok {
		return wh.HandleWait(op, payload, connWait)
	}
	return s.handler.Handle(op, payload)
}

// safeHandleLeased is safeHandle for the leased-response dispatch path.
// A recovered panic yields a plain (lease-free) StatusPanic response;
// see LeasedHandler for the no-panic-while-holding-a-lease contract.
func (s *Server) safeHandleLeased(lh LeasedHandler, op uint16, payload []byte, connWait time.Duration) (lr LeasedResp) {
	defer func() {
		if r := recover(); r != nil {
			lr = LeasedResp{Status: StatusPanic, Head: []byte(fmt.Sprintf("handler panic: %v", r))}
		}
	}()
	return lh.HandleLeased(op, payload, connWait)
}

// Close stops accepting, closes all connections, and waits for
// per-connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// pendingCall is one row of a Client's pending-call table.
type pendingCall struct {
	// ch carries the call's outcome: the response frame from the read
	// loop, or a zero frame from the expiry path when the deadline
	// passed first. Whoever sends has removed the row under Client.mu
	// beforehand, so a row's channel sees at most one send (or, on
	// connection failure, one close).
	ch chan wire.Frame
	// deadline is when the call expires with ErrTimeout; zero means
	// never. Set before the row is inserted, read under Client.mu.
	deadline time.Time
	// written is set once WriteFrame returned. An overdue row without it
	// has a caller that is not waiting on ch yet, possibly blocked in a
	// flush: expire keeps it and watches the writer instead.
	written atomic.Bool
}

// callPool recycles pendingCall structs (and their outcome channels)
// across Calls. A pendingCall returns to the pool only after its single
// outcome has been received: a call abandoned on context cancellation,
// write failure or connection failure may still see a late send or a
// close on its channel, so those are left to the GC instead.
var callPool = sync.Pool{
	New: func() any { return &pendingCall{ch: make(chan wire.Frame, 1)} },
}

func acquireCall(deadline time.Time) *pendingCall {
	p := callPool.Get().(*pendingCall)
	select { // defensive drain; the pool discipline should keep it empty
	case <-p.ch:
	default:
	}
	p.deadline = deadline
	p.written.Store(false)
	return p
}

// Client is a multiplexing RPC client over a single connection. Calls
// may be issued concurrently from any goroutine; requests issued while
// another caller's frame is on the wire coalesce into a single write.
//
// Deadlines are a column of the pending-call table, not a timer per
// call. One timer per connection is armed to the earliest deadline it
// has been told about; a call touches it only when its own deadline is
// earlier than that, so back-to-back calls with the same timeout never
// do. When it fires, expire walks the table, fails every overdue call
// with ErrTimeout and re-arms to the earliest deadline still pending.
type Client struct {
	conn   net.Conn
	cw     *wire.CoalescedWriter
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	err     error // terminal connection error
	done    chan struct{}
	timer   *time.Timer // runs expire; created by the first call with a deadline
	armed   time.Time   // when timer will next fire; zero while it is idle
	// watched is the flush expire last saw in flight with an overdue call
	// still inside the writer; zero (no flush has that ordinal) otherwise.
	watched uint64
}

// NewClient wraps an established connection and starts the read loop.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		cw:      wire.NewCoalescedWriter(conn, clientFlushObserver(metrics())),
		pending: make(map[uint64]*pendingCall),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		f, err := wire.ReadFrame(c.conn, 0)
		if err != nil {
			c.failAll(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		if f.Type != wire.TypeResponse {
			continue
		}
		c.mu.Lock()
		p := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if p != nil {
			p.ch <- f // buffered; never blocks
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
		if c.timer != nil {
			c.timer.Stop() // an expire already running sees c.err and returns
		}
	}
	for id, p := range c.pending {
		delete(c.pending, id)
		close(p.ch)
	}
	c.mu.Unlock()
}

// armLocked points the expiry timer at deadline. Caller holds c.mu.
func (c *Client) armLocked(deadline time.Time) {
	c.armed = deadline
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(deadline), c.expire)
	} else {
		c.timer.Reset(time.Until(deadline))
	}
}

// stuckGrace is how long expire waits between its two looks at a flush
// that an overdue call is still waiting on before it calls the flush
// stuck. A healthy Write returns in microseconds; one that has not
// moved in this long, with a call behind it already past its deadline,
// is blocked on a peer that stopped reading.
const stuckGrace = 2 * time.Millisecond

// expire is the timer's callback: it fails every call whose deadline has
// passed and re-arms the timer to the earliest deadline still pending,
// leaving it idle when there is none (the next call with a deadline arms
// it again). It decides from the table alone, so a firing that raced a
// re-arm is harmless.
//
// This is also the only place the conn's write deadline is ever set. An
// overdue call whose request has not left WriteFrame stays in the table
// — its caller is not listening for an outcome yet — and is looked at
// again every stuckGrace. Usually its write has finished by then and it
// expires like any other. If instead the writer is found in the same
// flush on two successive looks, that Write is blocked on a peer that
// stopped reading, and only failing it gets the callers back: the write
// deadline is set in the past and never cleared, so the blocked callers
// return ErrTimeout, and the connection, whose stream may now end
// mid-frame, is failed so later calls return ErrClosed at once instead
// of queueing behind the stall.
func (c *Client) expire() {
	now := time.Now()
	flush, flushing := c.cw.Flushing()
	var overdue []*pendingCall
	var next time.Time
	unwritten := false
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	for id, p := range c.pending {
		switch {
		case p.deadline.IsZero():
		case p.deadline.After(now):
			if next.IsZero() || p.deadline.Before(next) {
				next = p.deadline
			}
		case !p.written.Load():
			unwritten = true
		default:
			delete(c.pending, id)
			overdue = append(overdue, p)
		}
	}
	stuck := false
	if unwritten && flushing {
		stuck = flush == c.watched
		c.watched = flush
	} else {
		c.watched = 0
	}
	if unwritten {
		if look := now.Add(stuckGrace); next.IsZero() || look.Before(next) {
			next = look
		}
	}
	c.armed = time.Time{}
	if !next.IsZero() && !stuck {
		c.armLocked(next)
	}
	c.mu.Unlock()
	for _, p := range overdue {
		p.ch <- wire.Frame{} // buffered; never blocks
	}
	if stuck {
		_ = c.conn.SetWriteDeadline(now) // the conn is failed next; nothing to do with an error here
		c.failAll(fmt.Errorf("%w: write blocked past a call's deadline", ErrClosed))
	}
}

// Call sends op/payload and waits for the matching response, the end of
// ctx, or connection failure. Status is the application status from the
// server. A ctx deadline is the call's deadline, and its expiry maps to
// ErrTimeout so failure detectors can distinguish "slow/silent node"
// from "connection refused" (ErrClosed).
func (c *Client) Call(ctx context.Context, op uint16, payload []byte) (resp []byte, status uint16, err error) {
	deadline, _ := ctx.Deadline()
	return c.do(ctx, op, payload, time.Now(), deadline)
}

// CallTimeout is Call with a deadline of its own, start+timeout, kept in
// the pending-call table: no context is derived and no timer is created
// for it. It returns ErrTimeout once that deadline passes; ctx is still
// honoured, and its cancellation returns ctx.Err(). start is the
// caller's reading of the clock for the operation this call serves —
// time.Now() if it has none — and is also where the round-trip
// histogram starts counting, so a caller that timed its own operation
// does not pay for a second reading.
func (c *Client) CallTimeout(ctx context.Context, op uint16, payload []byte, start time.Time, timeout time.Duration) (resp []byte, status uint16, err error) {
	return c.do(ctx, op, payload, start, start.Add(timeout))
}

// do is the instrumented body shared by Call and CallTimeout.
func (c *Client) do(ctx context.Context, op uint16, payload []byte, start, deadline time.Time) (resp []byte, status uint16, err error) {
	m := metrics()
	m.inflight.Add(1)
	resp, status, err = c.call(ctx, op, payload, deadline)
	m.inflight.Add(-1)
	m.calls.Inc()
	switch {
	case err == nil:
		m.roundtrip.ObserveSince(start)
	case errors.Is(err, ErrTimeout):
		m.timeouts.Inc()
	default:
		m.failures.Inc()
	}
	return resp, status, err
}

// call is the uninstrumented body of do. On the happy path it reads no
// clock, touches no timer and allocates nothing but what ReadFrame
// allocated for the response.
func (c *Client) call(ctx context.Context, op uint16, payload []byte, deadline time.Time) (resp []byte, status uint16, err error) {
	id := c.nextID.Add(1)
	p := acquireCall(deadline)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, 0, err
	}
	c.pending[id] = p
	if !deadline.IsZero() && (c.armed.IsZero() || deadline.Before(c.armed)) {
		c.armLocked(deadline)
	}
	c.mu.Unlock()

	// The coalescing writer batches this frame with any concurrent
	// callers' frames into one Write. It sets no write deadline; if the
	// Write blocks past this call's deadline, expire unblocks it.
	f := wire.Frame{Type: wire.TypeRequest, ID: id, Op: op, Payload: payload}
	if werr := c.cw.WriteFrame(&f); werr != nil {
		c.forget(id)
		if isTimeoutErr(werr) {
			return nil, 0, fmt.Errorf("%w: write: %v", ErrTimeout, werr)
		}
		return nil, 0, fmt.Errorf("%w: write: %v", ErrClosed, werr)
	}
	p.written.Store(true)

	select {
	case got, ok := <-p.ch:
		if !ok {
			return nil, 0, c.terminalErr()
		}
		// The sender removed id from pending before the send, so no
		// further send or close can reach this channel.
		callPool.Put(p)
		if got.Type != wire.TypeResponse { // expire's zero frame
			return nil, 0, ErrTimeout
		}
		return got.Payload, got.Status, nil
	case <-ctx.Done():
		c.forget(id)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, 0, ErrTimeout
		}
		return nil, 0, ctx.Err()
	case <-c.done:
		return nil, 0, c.terminalErr()
	}
}

// forget drops a call the caller has given up on from the table.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *Client) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close tears down the connection and stops the expiry timer; in-flight
// calls fail with ErrClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.failAll(ErrClosed)
	return err
}

// Err returns the terminal connection error, or nil while healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
