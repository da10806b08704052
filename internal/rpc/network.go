package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Network abstracts how cluster endpoints listen and dial so the same
// HVAC client/server code runs over real TCP (cmd/ftcserver) or fully
// in-process (tests, examples, single-binary experiments).
type Network interface {
	// Listen creates a listener for the named endpoint. For TCP the name
	// is a host:port address; for the in-process network it is any
	// unique string (conventionally the node ID).
	Listen(name string) (net.Listener, error)
	// Dial connects to the named endpoint.
	Dial(name string) (net.Conn, error)
}

// DefaultDialTimeout bounds TCP connection establishment. It must stay
// below the failure detector's suspect budget (RPCTimeout × limit) so a
// black-holed endpoint — a host whose switch silently drops SYNs —
// surfaces as ordinary, bounded timeout evidence instead of hanging the
// dialing client for the kernel's multi-minute connect timeout.
const DefaultDialTimeout = 1 * time.Second

// TCPNetwork is the Network over real TCP sockets.
type TCPNetwork struct {
	// DialTimeout bounds Dial; <= 0 selects DefaultDialTimeout.
	DialTimeout time.Duration
}

// Listen implements Network.
func (TCPNetwork) Listen(name string) (net.Listener, error) {
	return net.Listen("tcp", name)
}

// Dial implements Network.
func (n TCPNetwork) Dial(name string) (net.Conn, error) {
	d := n.DialTimeout
	if d <= 0 {
		d = DefaultDialTimeout
	}
	return net.DialTimeout("tcp", name, d)
}

// ErrNoEndpoint reports a dial to a name nobody is listening on.
var ErrNoEndpoint = errors.New("rpc: no such endpoint")

// InprocNetwork connects clients and servers through buffered in-process
// pipes. Every Listen registers a name; Dial hands the listener one end
// of a bufferedPipe pair. Unlike net.Pipe — whose unbuffered rendezvous
// forces a writer/reader goroutine handoff per Write and serializes the
// framed RPC hot path — writes complete immediately into a growable
// buffer, so a request/response roundtrip costs two wakeups instead of
// four scheduler rendezvous.
type InprocNetwork struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// NewInprocNetwork creates an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{listeners: make(map[string]*inprocListener)}
}

// Listen implements Network.
func (n *InprocNetwork) Listen(name string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("rpc: endpoint %q already listening", name)
	}
	l := &inprocListener{
		name:    name,
		network: n,
		accept:  make(chan net.Conn),
		closed:  make(chan struct{}),
	}
	n.listeners[name] = l
	return l, nil
}

// Dial implements Network.
func (n *InprocNetwork) Dial(name string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[name]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoEndpoint, name)
	}
	client, server := newBufferedPipe(name)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: %q (closed)", ErrNoEndpoint, name)
	}
}

func (n *InprocNetwork) remove(name string) {
	n.mu.Lock()
	delete(n.listeners, name)
	n.mu.Unlock()
}

type inprocListener struct {
	name    string
	network *InprocNetwork
	accept  chan net.Conn
	once    sync.Once
	closed  chan struct{}
}

// Accept implements net.Listener.
func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.network.remove(l.name)
	})
	return nil
}

// Addr implements net.Listener.
func (l *inprocListener) Addr() net.Addr { return inprocAddr(l.name) }

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }

// pipeHalf is one direction of a buffered in-process pipe: a growable
// byte queue with exactly one writer conn and one reader conn. Reads
// block on an empty queue; writes never block (the queue is unbounded —
// the framed RPC protocol is request/response, so the amount in flight
// is naturally bounded by outstanding calls).
type pipeHalf struct {
	mu   sync.Mutex
	cond sync.Cond
	data []byte
	off  int // read offset into data

	wclosed bool // writer side closed: reads drain then io.EOF
	rclosed bool // reader side closed: writes fail immediately

	rdl, wdl pipeDeadline // one per conn using this half: its reader's, its writer's
}

// pipeDeadline is one conn's deadline on a pipeHalf, guarded by the
// half's mutex. gen counts settings: a timer callback that fired and was
// still waiting for the mutex when the deadline was re-armed or cleared
// belongs to an older generation and must not expire the new one.
type pipeDeadline struct {
	expired bool
	timer   *time.Timer
	gen     uint64
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond.L = &h.mu
	return h
}

func (h *pipeHalf) read(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.rclosed {
			return 0, io.ErrClosedPipe
		}
		if h.off < len(h.data) {
			n := copy(b, h.data[h.off:])
			h.off += n
			if h.off == len(h.data) {
				// Fully drained: reset so the backing array is reused
				// instead of growing without bound.
				h.data = h.data[:0]
				h.off = 0
			}
			return n, nil
		}
		if h.wclosed {
			return 0, io.EOF
		}
		if h.rdl.expired {
			return 0, os.ErrDeadlineExceeded
		}
		h.cond.Wait()
	}
}

func (h *pipeHalf) write(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wdl.expired {
		return 0, os.ErrDeadlineExceeded
	}
	if h.wclosed || h.rclosed {
		return 0, io.ErrClosedPipe
	}
	h.data = append(h.data, b...)
	h.cond.Broadcast()
	return len(b), nil
}

func (h *pipeHalf) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *pipeHalf) closeRead() {
	h.mu.Lock()
	h.rclosed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// setDeadline arms one of the half's two deadlines; t.IsZero clears it.
func (h *pipeHalf) setDeadline(t time.Time, d *pipeDeadline) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	d.gen++
	d.expired = false
	if t.IsZero() {
		return
	}
	wait := time.Until(t)
	if wait <= 0 {
		d.expired = true
		h.cond.Broadcast()
		return
	}
	gen := d.gen
	d.timer = time.AfterFunc(wait, func() {
		h.mu.Lock()
		if d.gen == gen {
			d.expired = true
			h.cond.Broadcast()
		}
		h.mu.Unlock()
	})
}

// bufferedPipe is one endpoint of an in-process duplex connection.
type bufferedPipe struct {
	rb, wb *pipeHalf // rb: peer→us, wb: us→peer
	addr   inprocAddr
}

// NewBufferedPipe returns the two connected endpoints of a fresh duplex
// in-process connection, named for Addr purposes. Exported for network
// middleware (package chaos interposes a frame relay between the two).
func NewBufferedPipe(name string) (client, server net.Conn) {
	return newBufferedPipe(name)
}

// newBufferedPipe returns the two connected endpoints of a fresh duplex
// in-process connection.
func newBufferedPipe(name string) (client, server net.Conn) {
	c2s, s2c := newPipeHalf(), newPipeHalf()
	a := inprocAddr(name)
	return &bufferedPipe{rb: s2c, wb: c2s, addr: a},
		&bufferedPipe{rb: c2s, wb: s2c, addr: a}
}

// Read implements net.Conn.
func (p *bufferedPipe) Read(b []byte) (int, error) { return p.rb.read(b) }

// Write implements net.Conn.
func (p *bufferedPipe) Write(b []byte) (int, error) { return p.wb.write(b) }

// Close implements net.Conn: our outbound half delivers EOF to the peer
// once drained; our inbound half fails the peer's writes and wakes any of
// our own blocked reads.
func (p *bufferedPipe) Close() error {
	p.wb.closeWrite()
	p.rb.closeRead()
	return nil
}

// LocalAddr implements net.Conn.
func (p *bufferedPipe) LocalAddr() net.Addr { return p.addr }

// RemoteAddr implements net.Conn.
func (p *bufferedPipe) RemoteAddr() net.Addr { return p.addr }

// SetDeadline implements net.Conn.
func (p *bufferedPipe) SetDeadline(t time.Time) error {
	p.SetReadDeadline(t)
	p.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (p *bufferedPipe) SetReadDeadline(t time.Time) error {
	p.rb.setDeadline(t, &p.rb.rdl)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (p *bufferedPipe) SetWriteDeadline(t time.Time) error {
	p.wb.setDeadline(t, &p.wb.wdl)
	return nil
}
