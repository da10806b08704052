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
//     The connection's reading goroutine answers whatever needs no wait
//     itself; only the waiting rest of a request gets a goroutine.
//   - Client: a multiplexing client with no goroutine of its own: a
//     caller waiting for its reply reads frames off the connection
//     itself. Calls carry deadlines as a column of its pending-call
//     table, expired by one timer per connection. A deadline expiry
//     surfaces as ErrTimeout, the signal the HVAC client's
//     timeout-counting failure detector consumes.
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

// StagedHandler is the optional Handler extension that splits a request
// at its first wait. The connection's reading goroutine calls Stage, so
// Stage must never block: it either answers (cont == nil) — a warm
// cache hit never leaves the reader — or returns the waiting rest of
// the request as a Continuation, which the server runs on a goroutine
// of its own under MaxConnConcurrency. Either way the response may
// carry a zero-copy lease. A plain Handler is served as one whole
// continuation. A panic in either stage is recovered and answered with
// StatusPanic, so anything a handler holds across the split (an
// admission slot, say) it must give back on that path itself, from a
// defer. Implementations must not panic between acquiring a lease and
// returning it in the LeasedResp — a panic unwinds past the server's
// recovery without the Release ever reaching the writer, leaking the
// lease.
type StagedHandler interface {
	Handler
	Stage(op uint16, payload []byte) (LeasedResp, Continuation)
}

// Continuation is the waiting rest of a request that Stage split off.
// Continue is called once, with the request's op and payload (still
// leased, under Handler's buffer rules) and connWait, the time the
// request waited for a fan-out slot: zero when one was free, which is
// measured without a clock read. It may block.
type Continuation interface {
	Continue(op uint16, payload []byte, connWait time.Duration) LeasedResp
}

// whole serves a plain Handler: every request is one whole continuation.
type whole struct{ Handler }

func (w *whole) Stage(uint16, []byte) (LeasedResp, Continuation) { return LeasedResp{}, w }

func (w *whole) Continue(op uint16, payload []byte, _ time.Duration) LeasedResp {
	status, resp := w.Handle(op, payload)
	return LeasedResp{Status: status, Head: resp}
}

// Server accepts framed-RPC connections and dispatches requests.
type Server struct {
	handler StagedHandler

	mu           sync.Mutex
	lis          net.Listener
	conns        map[net.Conn]struct{}
	closed       bool
	unresponsive atomic.Bool
	wg           sync.WaitGroup
}

// NewServer creates a Server dispatching to handler.
func NewServer(handler Handler) *Server {
	sh, ok := handler.(StagedHandler)
	if !ok {
		sh = &whole{handler}
	}
	return &Server{handler: sh, conns: make(map[net.Conn]struct{})}
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

// MaxConnConcurrency bounds the per-connection fan-out: at most this
// many continuations run per conn; past the bound the connection's
// reader itself blocks, so a write burst turns into TCP backpressure
// the sender feels instead of an unbounded goroutine pile the admission
// controller never saw.
const MaxConnConcurrency = 256

// serveConn is the connection's reading goroutine. It stages each
// request itself and writes the answer when Stage gave one; only a
// request with a continuation gets a goroutine. Responses from the
// reader and from continuations group-commit: whoever finishes while
// another response is mid-write parks its frame in the shared buffer
// and goes on without waiting, and one Write flushes them all (see
// wire.CoalescedWriter).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	m := metrics()
	cw := wire.NewCoalescedWriter(conn, serverFlushObserver(m))
	fr := wire.NewFrameReader(conn, 0)
	sem := make(chan struct{}, MaxConnConcurrency)
	for {
		// The request body is leased from the wire buffer pool, so the
		// steady-state receive path allocates nothing per frame, and a
		// small request arrives in one Read. The lease is released once
		// the request's response (which may alias the request payload)
		// has been written.
		f, lease, err := fr.ReadFramePooled()
		if err != nil {
			return
		}
		if f.Type != wire.TypeRequest || s.unresponsive.Load() {
			// Non-requests are ignored; in fault-injection mode requests
			// are swallowed so the client observes a timeout.
			lease.Release()
			continue
		}
		lr, cont := s.stage(f.Op, f.Payload)
		if cont == nil {
			s.reply(cw, m, f.ID, f.Op, lr)
			lease.Release()
			continue
		}
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
		id, op, payload := f.ID, f.Op, f.Payload
		go func() {
			defer func() { <-sem }()
			defer lease.Release()
			s.reply(cw, m, id, op, s.resume(cont, op, payload, connWait))
		}()
	}
}

// reply writes the response to request id. A leased payload tail is
// spliced into the flush, and its Release fires once the bytes are on
// the wire (or the flush is abandoned) — the lease outlives the caller.
// Behind another goroutine's flush it returns once the frame is queued
// (wire.CoalescedWriter), which the connection's reader relies on: that
// flush may be blocked on a client that is itself blocked writing the
// next request to this reader. A server that turned unresponsive while
// the request ran drops the response.
func (s *Server) reply(cw *wire.CoalescedWriter, m *rpcMetrics, id uint64, op uint16, lr LeasedResp) {
	if s.unresponsive.Load() {
		if lr.Release != nil {
			lr.Release()
		}
		return
	}
	out := wire.Frame{Type: wire.TypeResponse, ID: id, Op: op, Status: lr.Status, Payload: lr.Head}
	if err := cw.WriteFrameExt(&out, lr.Ext, lr.Release); err != nil {
		// The conn failure also surfaces on the next read; the counter
		// records that a computed response was dropped.
		m.respDropped.Inc()
	}
}

// StatusPanic is returned to the client when a handler panics: a daemon
// serving a thousand-node job must not die because one request tripped a
// bug — the client sees an error status and the failure stays scoped to
// that request.
const StatusPanic uint16 = 0xFFFF

// panicResp is the plain (lease-free) response to a recovered panic;
// see StagedHandler for the no-panic-while-holding-a-lease contract.
func panicResp(r any) LeasedResp {
	return LeasedResp{Status: StatusPanic, Head: []byte(fmt.Sprintf("handler panic: %v", r))}
}

// stage runs the handler's non-waiting stage, recovering a panic.
func (s *Server) stage(op uint16, payload []byte) (lr LeasedResp, cont Continuation) {
	defer func() {
		if r := recover(); r != nil {
			lr, cont = panicResp(r), nil
		}
	}()
	return s.handler.Stage(op, payload)
}

// resume runs a continuation, recovering a panic.
func (s *Server) resume(cont Continuation, op uint16, payload []byte, connWait time.Duration) (lr LeasedResp) {
	defer func() {
		if r := recover(); r != nil {
			lr = panicResp(r)
		}
	}()
	return cont.Continue(op, payload, connWait)
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
	// ch carries the call's outcome when another goroutine settles it:
	// the response frame from the reading caller, or a zero frame from
	// expire when the deadline passed first. Whoever sends has removed
	// the row under Client.mu beforehand, so a row's channel sees at most
	// one send (or, on connection failure, one close).
	ch chan wire.Frame
	// turn hands the call the reading role. The one send, made under
	// Client.mu by handoffLocked, goes only to a written row while nobody
	// reads, so a call ever holds at most one token.
	turn chan struct{}
	// deadline is when the call expires with ErrTimeout; zero means
	// never. Set before the row is inserted, read under Client.mu.
	deadline time.Time
	// written is set under Client.mu once WriteFrame returned: the
	// request is on the wire or queued behind the flush in progress, and
	// the caller waits for an outcome. An overdue row without it has a
	// caller still inside WriteFrame, the flusher, possibly blocked in
	// Write: expire keeps it and watches the writer instead. Only a
	// written call is handed the reading role — every caller but the
	// flusher can take it, so a flush never waits on a server whose
	// replies nobody reads.
	written bool
}

// callPool recycles pendingCall structs (and their channels) across
// Calls. A pendingCall returns to the pool only after its single
// outcome has been settled with nothing left in flight towards it: a
// call abandoned on context cancellation, write failure or connection
// failure may still see a late send or a close on its channel, so those
// are left to the GC instead.
var callPool = sync.Pool{
	New: func() any { return &pendingCall{ch: make(chan wire.Frame, 1), turn: make(chan struct{}, 1)} },
}

func acquireCall(deadline time.Time) *pendingCall {
	p := callPool.Get().(*pendingCall)
	select { // defensive drain; the pool discipline should keep it empty
	case <-p.ch:
	default:
	}
	p.deadline = deadline
	p.written = false
	return p
}

// Client is a multiplexing RPC client over a single connection. Calls
// may be issued concurrently from any goroutine; requests issued while
// another caller's frame is on the wire coalesce into a single write.
//
// The Client has no goroutine of its own: callers read their replies.
// A caller whose request is written — sent, or queued behind another
// caller's flush — and who finds nobody reading takes the reading role
// and reads frames until its own reply comes, passing every other
// caller's reply to its row's channel. A lone caller thus writes, reads
// and returns on its own goroutine. Once its outcome is settled, the
// reader hands the role to one other written call still waiting, if
// there is one; nobody reads while no call is pending. A reader whose
// deadline passes or whose ctx ends is woken by a read deadline in the
// past, and the FrameReader keeps a partly read frame for the next
// reader, so the stream never desynchronizes.
//
// Only the caller flushing cannot read, so a flush that carries other
// callers' requests always has one of them reading: a server that
// answers on its connection's reader, and stops reading while its reply
// is blocked, is always drained. What is left is a lone caller flushing
// a request larger than the socket buffers while the server is blocked
// on more than the buffers' worth of replies to calls that have already
// given up; the caller's deadline then fails the connection (expire).
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
	fr     *wire.FrameReader // used by the reading caller only
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	err     error // terminal connection error
	// reader is the call holding the reading role; nil while nobody reads.
	reader *pendingCall
	// interrupted is set while a read deadline in the past is on the conn
	// to wake the reader; whoever next holds mu as the reader clears it.
	interrupted bool
	timer       *time.Timer // runs expire; created by the first call with a deadline
	armed       time.Time   // when timer will next fire; zero while it is idle
	// watched is the flush expire last saw in flight with an overdue call
	// still inside the writer; zero (no flush has that ordinal) otherwise.
	watched uint64
}

// NewClient wraps an established connection. It starts no goroutine.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		cw:      wire.NewCoalescedWriter(conn, clientFlushObserver(metrics())),
		fr:      wire.NewFrameReader(conn, 0),
		pending: make(map[uint64]*pendingCall),
	}
}

// failAll marks the connection failed with err (the first error wins),
// stops the expiry timer, fails every call in the table and wakes the
// reader, who finds its row gone.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if c.timer != nil {
			c.timer.Stop() // an expire already running sees c.err and returns
		}
		if c.reader != nil {
			c.interruptLocked()
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

// longAgo is the read deadline that interrupts a reader: any instant in
// the past fails a blocked Read at once, and a constant one costs no
// clock read.
var longAgo = time.Unix(1, 0)

// interruptLocked wakes the reader out of a blocked Read. Caller holds
// c.mu.
func (c *Client) interruptLocked() {
	if !c.interrupted {
		c.interrupted = true
		_ = c.conn.SetReadDeadline(longAgo) // a failed conn fails the Read anyway
	}
}

// uninterruptLocked clears an interrupt's read deadline. Caller holds
// c.mu and is, or is taking over from, the reader.
func (c *Client) uninterruptLocked() {
	if c.interrupted {
		c.interrupted = false
		_ = c.conn.SetReadDeadline(time.Time{})
	}
}

// interrupt wakes p's read, if p is the reader: how a reading caller's
// ctx ends its wait.
func (c *Client) interrupt(p *pendingCall) {
	c.mu.Lock()
	if c.reader == p {
		c.interruptLocked()
	}
	c.mu.Unlock()
}

// handoffLocked gives the reading role to one written call still in the
// table, if there is one. Caller holds c.mu, and nobody reads.
func (c *Client) handoffLocked() {
	for _, q := range c.pending {
		if q.written {
			c.reader = q
			select {
			case q.turn <- struct{}{}:
			default: // never full: see pendingCall.turn
			}
			return
		}
	}
}

// leave ends p's part in the table: its row is dropped if it is still
// there, and the reading role, if p holds it, passes on.
func (c *Client) leave(id uint64, p *pendingCall) {
	c.mu.Lock()
	delete(c.pending, id)
	if c.reader == p {
		c.reader = nil
		c.uninterruptLocked()
		c.handoffLocked()
	}
	c.mu.Unlock()
	select { // a token handed over before p's outcome settled
	case <-p.turn:
	default:
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
// re-arm is harmless. An overdue call that holds the reading role is
// blocked in Read, not on its channel: expire interrupts the read.
//
// This is also the only place the conn's write deadline is ever set. An
// overdue call still inside WriteFrame — the flusher, not listening for
// an outcome yet — stays in the table and is looked at again every
// stuckGrace. Usually its write has finished by then and it
// expires like any other. If instead the writer is found in the same
// flush on two successive looks, that Write is blocked on a peer that
// stopped reading, and only failing it gets the callers back. The
// connection, whose stream may now end mid-frame, is failed first, so
// that a caller released by the failed Write who calls again gets
// ErrClosed at once instead of queueing behind the stall; then the write
// deadline is set in the past and never cleared, and the blocked callers
// return ErrTimeout.
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
		case !p.written:
			unwritten = true
		default:
			delete(c.pending, id)
			overdue = append(overdue, p)
			if p == c.reader {
				c.interruptLocked()
			}
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
		c.failAll(fmt.Errorf("%w: write blocked past a call's deadline", ErrClosed))
		_ = c.conn.SetWriteDeadline(now) // the conn is failed already; nothing to do with an error here
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
// clock, touches no timer and allocates nothing but the response
// payload; a lone caller also touches no channel.
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
	// callers' frames into one Write. Behind another caller's flush it
	// returns at once, leaving the frame to that flusher, so this caller
	// is free to read while the flush goes out: the flush may be waiting
	// for the server, and the server for someone here to read its
	// replies. It sets no write deadline; if a Write blocks past this
	// call's deadline, expire unblocks it.
	f := wire.Frame{Type: wire.TypeRequest, ID: id, Op: op, Payload: payload}
	if werr := c.cw.WriteFrame(&f); werr != nil {
		c.leave(id, p)
		if isTimeoutErr(werr) {
			return nil, 0, fmt.Errorf("%w: write: %v", ErrTimeout, werr)
		}
		return nil, 0, fmt.Errorf("%w: write: %v", ErrClosed, werr)
	}

	c.mu.Lock()
	p.written = true
	_, waiting := c.pending[id]
	read := waiting && c.reader == nil
	if read {
		c.reader = p
	}
	c.mu.Unlock()
	if read {
		return c.read(ctx, id, p)
	}
	return c.wait(ctx, id, p)
}

// wait parks a written call until another goroutine settles its outcome
// or hands it the reading role.
func (c *Client) wait(ctx context.Context, id uint64, p *pendingCall) ([]byte, uint16, error) {
	select {
	case got, ok := <-p.ch:
		select {
		case <-p.turn: // the role reached p before its outcome did
			c.leave(id, p)
		default:
		}
		return c.settled(p, got, ok)
	case <-p.turn:
		return c.read(ctx, id, p)
	case <-ctx.Done():
		c.leave(id, p)
		return nil, 0, ctxErr(ctx)
	}
}

// read holds the reading role for p: it reads frames, handing every
// other caller's reply to its row, until p's own outcome is settled,
// and then passes the role on. A cancellable ctx is watched by an
// interrupt, so a lone reader still returns when it ends.
func (c *Client) read(ctx context.Context, id uint64, p *pendingCall) ([]byte, uint16, error) {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { c.interrupt(p) })
		defer stop()
	}
	for {
		f, err := c.fr.ReadFrame()
		if err != nil {
			if !isTimeoutErr(err) {
				c.failAll(fmt.Errorf("%w: %v", ErrClosed, err))
			}
			// Interrupted: by expire or failAll, which settled p; by ctx;
			// or by a cause that has since passed.
			c.mu.Lock()
			c.uninterruptLocked()
			_, waiting := c.pending[id]
			c.mu.Unlock()
			if !waiting {
				got, ok := <-p.ch
				c.leave(id, p)
				return c.settled(p, got, ok)
			}
			if ctx.Err() != nil {
				c.leave(id, p)
				return nil, 0, ctxErr(ctx)
			}
			continue
		}
		if f.Type != wire.TypeResponse {
			continue
		}
		c.mu.Lock()
		q := c.pending[f.ID]
		delete(c.pending, f.ID)
		if q == p {
			c.reader = nil
			c.uninterruptLocked()
			c.handoffLocked()
		}
		c.mu.Unlock()
		switch q {
		case p:
			callPool.Put(p)
			return f.Payload, f.Status, nil
		case nil: // a reply to a call that timed out or gave up
		default:
			q.ch <- f // buffered; never blocks
		}
	}
}

// settled turns an outcome received on p's channel into Call's results.
// A closed channel is connection failure; p, whose channel stays
// closed, is not pooled.
func (c *Client) settled(p *pendingCall, got wire.Frame, ok bool) ([]byte, uint16, error) {
	if !ok {
		return nil, 0, c.terminalErr()
	}
	callPool.Put(p)
	if got.Type != wire.TypeResponse { // expire's zero frame
		return nil, 0, ErrTimeout
	}
	return got.Payload, got.Status, nil
}

// ctxErr is the error a call cut short by ctx returns: ErrTimeout for a
// passed ctx deadline, ctx.Err() otherwise.
func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ctx.Err()
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
